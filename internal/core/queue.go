package core

import (
	"math/bits"

	"acic/internal/histogram"
)

// lastHistBucket is the histogram's clamp: every distance from bucket 511
// up counts in it.
const lastHistBucket = histogram.DefaultBuckets - 1

// maxQueueBuckets caps a vertexQueue: 2^14 buckets, 64 KiB of list heads
// and 2 KiB of occupancy bits. Distances past the cap share its last bucket.
const maxQueueBuckets = 1 << 14

// vertexQueue is one PE's queue of accepted updates (§II-C), pq and pq_hold
// in one structure. It holds local vertex ids, each at most once, filed by
// the distance of the update that last improved them: below the
// histogram's clamp the bucket is the histogram's, and from there up it is
// ⌊d/width⌋ (at least lastHistBucket), so a frontier past the clamp stays
// in order. Each bucket is an intrusive circular list threaded through
// per-vertex arrays, oldest first, and an occupancy bitmap finds the lowest
// non-empty one.
//
// t_pq is a cursor, not a wall: pop takes the oldest vertex of the lowest
// non-empty bucket only while that bucket's histogram bucket is within the
// threshold it is handed, and the updates above it wait where they are.
// Nothing moves when a broadcast changes t_pq. ACIC's keys are not
// monotone (an update may arrive below everything popped so far), so lo is
// only the lowest bucket that may be non-empty, and a push below it moves
// it down.
type vertexQueue struct {
	// Per local vertex: its neighbours in its bucket's list and the bucket
	// it is filed in, -1 when it is not queued.
	next, prev, bucket []int32

	head []int32  // head[b] is the oldest vertex in bucket b, or -1
	occ  []uint64 // bit b is set when bucket b is non-empty
	lo   int      // no bucket below lo is non-empty
	n    int      // queued vertices
	inv  float64  // 1/width, for buckets past the histogram's clamp

	// count[h] is how many queued vertices sit in histogram bucket h;
	// every bucket at or above top counts none.
	count [histogram.DefaultBuckets]int64
	top   int
}

// reset empties q for a run over n local vertices with the given bucket
// width, reusing its arrays. The heads start at the histogram's 512
// buckets; only a distance past the clamp grows them.
func (q *vertexQueue) reset(n int, width float64) {
	if cap(q.bucket) >= n {
		q.next, q.prev, q.bucket = q.next[:n], q.prev[:n], q.bucket[:n]
	} else {
		q.next, q.prev, q.bucket = make([]int32, n), make([]int32, n), make([]int32, n)
	}
	for i := range q.bucket {
		q.bucket[i] = -1
	}
	if q.head == nil {
		q.head = make([]int32, histogram.DefaultBuckets)
		q.occ = make([]uint64, histogram.DefaultBuckets/64)
	}
	for i := range q.head {
		q.head[i] = -1
	}
	clear(q.occ)
	q.count = [histogram.DefaultBuckets]int64{}
	q.lo, q.n, q.top = 0, 0, 0
	q.inv = 1 / width
}

// histBucket is the histogram bucket of queue bucket b.
func histBucket(b int) int { return min(b, lastHistBucket) }

// queueBucket is the queue bucket of distance d, whose histogram bucket is
// h: h itself below the clamp, else max(lastHistBucket, ⌊d/width⌋) up to
// the last bucket, where +Inf and NaN go too.
//
//acic:noalloc
func (q *vertexQueue) queueBucket(h int, d float64) int {
	if h < lastHistBucket {
		return h
	}
	x := d * q.inv
	if !(x < maxQueueBuckets-1) {
		return maxQueueBuckets - 1
	}
	return max(lastHistBucket, int(x))
}

// push files local vertex v for an accepted update of distance d in
// histogram bucket h. If v was already queued, the update it held is
// superseded: push moves v and returns that update's histogram bucket and
// true, so the caller can complete it.
//
//acic:noalloc
func (q *vertexQueue) push(v int32, h int, d float64) (old int, superseded bool) {
	b := q.queueBucket(h, d)
	if s := int(q.bucket[v]); s >= 0 {
		old, superseded = histBucket(s), true
		if s == b {
			return old, true // same bucket, same histogram bucket: v keeps its place
		}
		q.count[old]--
		q.unlink(v, s)
	} else {
		q.n++
	}
	if b >= len(q.head) {
		q.grow(b) //acic:allow-alloc only for distances past the histogram's clamp, at most five doublings per Scratch slot
	}
	q.link(v, b)
	q.count[h]++
	if h >= q.top {
		q.top = h + 1
	}
	if b < q.lo {
		q.lo = b
	}
	return old, superseded
}

// pop removes the oldest vertex of the lowest non-empty bucket and returns
// it with its histogram bucket, if that bucket is within t; otherwise it
// returns false and leaves the queue as it was.
//
//acic:noalloc
func (q *vertexQueue) pop(t int) (v int32, h int, ok bool) {
	if q.n == 0 {
		return 0, 0, false
	}
	w := q.lo >> 6
	word := q.occ[w] &^ (1<<(q.lo&63) - 1)
	for word == 0 {
		w++
		word = q.occ[w]
	}
	b := w<<6 | bits.TrailingZeros64(word)
	q.lo = b
	if h = histBucket(b); h > t {
		return 0, 0, false
	}
	v = q.head[b]
	q.unlink(v, b)
	q.n--
	q.count[h]--
	if q.n == 0 {
		q.top = 0
	}
	return v, h, true
}

// heldAbove counts the queued vertices whose histogram bucket is above t:
// the ones pop will not take under threshold t.
func (q *vertexQueue) heldAbove(t int) int64 {
	var n int64
	for _, c := range q.count[min(t+1, q.top):q.top] {
		n += c
	}
	return n
}

// grow widens the heads to cover bucket b, doubling up to maxQueueBuckets.
// The wider heads stay with the Scratch slot for later runs.
func (q *vertexQueue) grow(b int) {
	size := len(q.head)
	for size <= b {
		size *= 2
	}
	size = min(size, maxQueueBuckets)
	head := make([]int32, size)
	copy(head, q.head)
	for i := len(q.head); i < size; i++ {
		head[i] = -1
	}
	occ := make([]uint64, size/64)
	copy(occ, q.occ)
	q.head, q.occ = head, occ
}

// link appends v to bucket b's list.
func (q *vertexQueue) link(v int32, b int) {
	q.bucket[v] = int32(b)
	hd := q.head[b]
	if hd < 0 {
		q.head[b], q.next[v], q.prev[v] = v, v, v
		q.occ[b>>6] |= 1 << (b & 63)
		return
	}
	tl := q.prev[hd]
	q.next[tl], q.prev[v], q.next[v], q.prev[hd] = v, tl, hd, v
}

// unlink removes v from bucket b's list.
func (q *vertexQueue) unlink(v int32, b int) {
	q.bucket[v] = -1
	nx := q.next[v]
	if nx == v {
		q.head[b] = -1
		q.occ[b>>6] &^= 1 << (b & 63)
		return
	}
	pv := q.prev[v]
	q.next[pv], q.prev[nx] = nx, pv
	if q.head[b] == v {
		q.head[b] = nx
	}
}
