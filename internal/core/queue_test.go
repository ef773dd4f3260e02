package core

import (
	"math"
	"testing"

	"acic/internal/histogram"
	"acic/internal/xrand"
)

// queueWidth is the bucket width the queue tests run at.
const queueWidth = 0.5

// refQueue is vertexQueue's reference: a multiset of (bucket, arrival)
// pairs, one per queued vertex, searched in full on every pop. A push into
// a new bucket is a new arrival; a push into the bucket the vertex is
// already in keeps its place.
type refQueue struct {
	bucket []int   // -1 when absent
	seq    []int64 // arrival stamp within the bucket
	clock  int64
}

func newRefQueue(n int) *refQueue {
	r := &refQueue{bucket: make([]int, n), seq: make([]int64, n)}
	for i := range r.bucket {
		r.bucket[i] = -1
	}
	return r
}

// refBucket files d the way the queue must: the histogram's bucket below
// its clamp, ⌊d/width⌋ (at least the clamp) up to the last bucket above.
func refBucket(h *histogram.Histogram, d float64) int {
	if b := h.BucketOf(d); b < lastHistBucket {
		return b
	}
	if math.IsNaN(d) || d/queueWidth >= maxQueueBuckets-1 {
		return maxQueueBuckets - 1
	}
	return max(lastHistBucket, int(math.Floor(d/queueWidth)))
}

func (r *refQueue) push(v int32, b int) (old int, superseded bool) {
	if s := r.bucket[v]; s >= 0 {
		old, superseded = histBucket(s), true
		if s == b {
			return old, true
		}
	}
	r.clock++
	r.bucket[v], r.seq[v] = b, r.clock
	return old, superseded
}

// pop returns the oldest vertex of the lowest non-empty bucket if that
// bucket's histogram bucket is within t.
func (r *refQueue) pop(t int) (v int32, h int, ok bool) {
	best := -1
	for i, b := range r.bucket {
		if b >= 0 && (best < 0 || b < r.bucket[best] || b == r.bucket[best] && r.seq[i] < r.seq[best]) {
			best = i
		}
	}
	if best < 0 || histBucket(r.bucket[best]) > t {
		return 0, 0, false
	}
	h = histBucket(r.bucket[best])
	r.bucket[best] = -1
	return int32(best), h, true
}

func (r *refQueue) heldAbove(t int) (held int64, n int) {
	for _, b := range r.bucket {
		if b >= 0 {
			n++
			if histBucket(b) > t {
				held++
			}
		}
	}
	return held, n
}

// tapeDist maps a tape byte to a distance: below the clamp for most
// bytes, past it (up to ~8,700 buckets) for the rest, and the edges —
// the clamp, the cap, +Inf, NaN, 0 — for the last few.
func tapeDist(x byte) float64 {
	switch {
	case x < 128:
		return float64(x) * 0.37
	case x < 250:
		return (lastHistBucket + float64(x-128)*67 + 0.25) * queueWidth
	}
	return [...]float64{lastHistBucket * queueWidth, (maxQueueBuckets - 1) * queueWidth, math.Inf(1), math.NaN(), 0, 1e300}[x-250]
}

// runQueueTape replays ops, three bytes per op, on a vertexQueue and on the
// reference: kind%4 < 2 pushes vertex id%n at tapeDist(arg); otherwise it
// pops under threshold 2·arg (511 from arg 250 up). After every op the
// queue's counts, held population, lists and lo must agree with the
// reference, and the tape ends by draining both.
func runQueueTape(t testing.TB, n int, ops []byte) {
	t.Helper()
	hist := histogram.New(histogram.DefaultBuckets, queueWidth)
	var q vertexQueue
	q.reset(n, queueWidth)
	ref := newRefQueue(n)
	step := func(i int, kind, id, arg byte) {
		v := int32(int(id) % n)
		if kind%4 < 2 {
			d := tapeDist(arg)
			h := hist.BucketOf(d)
			gotOld, gotSup := q.push(v, h, d)
			wantOld, wantSup := ref.push(v, refBucket(hist, d))
			if gotOld != wantOld || gotSup != wantSup {
				t.Fatalf("op %d: push(%d, %g) superseded (%d, %v), reference (%d, %v)", i, v, d, gotOld, gotSup, wantOld, wantSup)
			}
			return
		}
		th := min(2*int(arg), lastHistBucket)
		gv, gh, gok := q.pop(th)
		wv, wh, wok := ref.pop(th)
		if gv != wv || gh != wh || gok != wok {
			t.Fatalf("op %d: pop(%d) = (%d, %d, %v), reference (%d, %d, %v)", i, th, gv, gh, gok, wv, wh, wok)
		}
	}
	check := func(i int) {
		per, _ := walkQueue(t, &q)
		var want [histogram.DefaultBuckets]int64
		for _, b := range ref.bucket {
			if b >= 0 {
				want[histBucket(b)]++
			}
		}
		if per != want || q.count != want {
			t.Fatalf("op %d: queued per histogram bucket differs from the reference", i)
		}
		for th := 0; th <= lastHistBucket; th += 73 {
			if held, n := ref.heldAbove(th); q.heldAbove(th) != held || q.n != n {
				t.Fatalf("op %d: heldAbove(%d) = %d of %d, reference %d of %d", i, th, q.heldAbove(th), q.n, held, n)
			}
		}
	}
	for i := 0; i+2 < len(ops); i += 3 {
		step(i/3, ops[i], ops[i+1], ops[i+2])
		check(i / 3)
	}
	for {
		wv, wh, wok := ref.pop(lastHistBucket)
		gv, gh, gok := q.pop(lastHistBucket)
		if gv != wv || gh != wh || gok != wok {
			t.Fatalf("drain: pop = (%d, %d, %v), reference (%d, %d, %v)", gv, gh, gok, wv, wh, wok)
		}
		if !wok {
			break
		}
	}
	if q.n != 0 {
		t.Fatalf("drained the reference but the queue holds %d", q.n)
	}
}

// TestVertexQueueOrder walks the operations through one scenario: FIFO
// within a bucket, a push below lo moving lo down, a move out of a bucket,
// a bucket past the histogram's clamp growing the heads, and t_pq as a
// cursor that holds what lies above it without moving it.
func TestVertexQueueOrder(t *testing.T) {
	hist := histogram.New(histogram.DefaultBuckets, queueWidth)
	var q vertexQueue
	q.reset(8, queueWidth)
	push := func(v int32, d float64) (int, bool) { return q.push(v, hist.BucketOf(d), d) }
	pop := func(th int, want int32) {
		t.Helper()
		if v, _, ok := q.pop(th); !ok || v != want {
			t.Fatalf("pop(%d) = (%d, %v), want %d", th, v, ok, want)
		}
	}
	push(0, 2.6) // bucket 5
	push(1, 1.7) // bucket 3
	push(2, 2.9) // bucket 5, behind vertex 0
	pop(lastHistBucket, 1)
	pop(lastHistBucket, 0)
	if q.lo != 5 {
		t.Fatalf("lo = %d after popping bucket 5, want 5", q.lo)
	}
	push(3, 0.6) // bucket 1, below lo
	if q.lo != 1 {
		t.Fatalf("lo = %d after a push into bucket 1, want 1", q.lo)
	}
	if old, sup := push(2, 0.1); !sup || old != 5 { // vertex 2 moves to bucket 0
		t.Fatalf("moving vertex 2 superseded (%d, %v), want bucket 5", old, sup)
	}
	pop(lastHistBucket, 2)
	pop(lastHistBucket, 3)

	push(4, 700*queueWidth) // past the clamp: the heads grow to 1024
	push(5, 600*queueWidth)
	if len(q.head) != 1024 {
		t.Fatalf("%d heads after a push into bucket 700, want 1024", len(q.head))
	}
	if _, _, ok := q.pop(10); ok {
		t.Fatal("pop(10) took a vertex from histogram bucket 511")
	}
	if held := q.heldAbove(10); held != 2 {
		t.Fatalf("heldAbove(10) = %d, want 2", held)
	}
	// Past the clamp the order is the distance's, not the arrival's.
	pop(lastHistBucket, 5)
	pop(lastHistBucket, 4)
	if q.n != 0 || q.heldAbove(0) != 0 {
		t.Fatalf("queue not empty: %d queued, %d held", q.n, q.heldAbove(0))
	}
}

// TestVertexQueueMatchesReference runs random tapes against the reference.
func TestVertexQueueMatchesReference(t *testing.T) {
	r := xrand.New(45)
	for i := 0; i < 200; i++ {
		ops := make([]byte, 3*(1+r.Intn(300)))
		for j := range ops {
			ops[j] = byte(r.Intn(256))
		}
		runQueueTape(t, 1+r.Intn(40), ops)
	}
}

// TestVertexQueueDoesNotAllocate: once the heads cover every bucket a
// tape reaches, push and pop allocate nothing.
func TestVertexQueueDoesNotAllocate(t *testing.T) {
	hist := histogram.New(histogram.DefaultBuckets, queueWidth)
	var q vertexQueue
	q.reset(64, queueWidth)
	cycle := func() {
		for v := int32(0); v < 64; v++ {
			d := tapeDist(byte(v * 37))
			q.push(v, hist.BucketOf(d), d)
		}
		for {
			if _, _, ok := q.pop(lastHistBucket); !ok {
				break
			}
		}
	}
	cycle()
	if n := testing.AllocsPerRun(50, cycle); n != 0 {
		t.Errorf("push/pop cycle: %.1f allocs, want 0", n)
	}
}

func FuzzVertexQueue(f *testing.F) {
	f.Add(byte(8), []byte{0, 1, 10, 0, 2, 10, 2, 0, 255, 0, 3, 200, 2, 0, 3, 1, 3, 1, 3, 0, 255})
	f.Add(byte(3), []byte{0, 0, 252, 0, 1, 253, 0, 2, 249, 2, 0, 0, 2, 0, 255, 1, 1, 250})
	f.Fuzz(func(t *testing.T, n byte, ops []byte) {
		runQueueTape(t, 1+int(n)%64, ops)
	})
}
