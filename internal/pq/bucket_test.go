package pq

// Differential tests of BucketQueue against IndexedHeap on monotone op
// tapes: every key pushed is at least the last key popped (or the first
// key pushed since Reset) and at most span above it, as in Dijkstra on
// weights up to span. Keys are multiples of a power-of-two quantum and
// widths are powers of two, so key/width is exact and the bucket of a key
// is the same number here and in the queue.

import (
	"math"
	"testing"

	"acic/internal/xrand"
)

// tapeShape is one queue configuration a tape runs under.
type tapeShape struct {
	width, span, quantum float64
	n                    int // ids [0, n): few enough that decreases are common
}

// runTape replays ops, three bytes per op, on q and on an IndexedHeap:
//
//   - kind%16 < 8: PushOrDecrease(id%n, last + quantum·(step mod
//     span/quantum+1)), which must return what the reference returns;
//   - kind%16 == 15: Reset mid-search, into the other shape when there is
//     one, with a fresh reference;
//   - otherwise: PopMin, checked by popCheck.
//
// Len must agree after every op, and the tape ends by draining both.
func runTape(t testing.TB, q *BucketQueue, shapes []tapeShape, ops []byte) {
	t.Helper()
	cur := 0
	sh := shapes[cur]
	q.Reset(sh.width, sh.span)
	ref := NewIndexedHeap(sh.n)
	last, anchored := 0.0, false
	for i := 0; i+2 < len(ops); i += 3 {
		kind, id, step := ops[i]%16, int(ops[i+1])%sh.n, int(ops[i+2])
		switch {
		case kind < 8:
			key := last + sh.quantum*float64(step%(int(sh.span/sh.quantum)+1))
			if !anchored {
				last, anchored = key, true
			}
			if got, want := q.PushOrDecrease(id, key), ref.PushOrDecrease(id, key); got != want {
				t.Fatalf("op %d: PushOrDecrease(%d, %g) = %v, IndexedHeap %v", i/3, id, key, got, want)
			}
		case kind == 15:
			cur = (cur + 1) % len(shapes)
			sh = shapes[cur]
			q.Reset(sh.width, sh.span)
			ref, anchored = NewIndexedHeap(sh.n), false
		case ref.Len() > 0:
			last = popCheck(t, q, ref, sh.width)
		}
		if q.Len() != ref.Len() {
			t.Fatalf("op %d: Len %d, IndexedHeap %d", i/3, q.Len(), ref.Len())
		}
	}
	for ref.Len() > 0 {
		popCheck(t, q, ref, sh.width)
	}
	if q.Len() != 0 {
		t.Fatalf("drained the reference but the queue holds %d", q.Len())
	}
}

// popCheck pops q and requires an id the reference holds, at the key the
// reference holds for it, in the bucket of the reference's minimum; then it
// removes that id from the reference and returns the key.
func popCheck(t testing.TB, q *BucketQueue, ref *IndexedHeap, width float64) float64 {
	t.Helper()
	rid, rkey := ref.PopMin() // peek: put the minimum straight back
	ref.Push(rid, rkey)
	id, key := q.PopMin()
	if !ref.Contains(id) || ref.Key(id) != key {
		t.Fatalf("PopMin = (%d, %g): the reference holds that id %v at %g", id, key, ref.Contains(id), ref.Key(id))
	}
	if b, rb := math.Floor(key/width), math.Floor(rkey/width); b != rb {
		t.Fatalf("PopMin = (%d, %g) from bucket %g, but the minimum %g is in bucket %g", id, key, b, rkey, rb)
	}
	ref.DecreaseKey(id, math.Inf(-1))
	ref.PopMin()
	return key
}

// randomTape draws ops three bytes at a time with the given share of
// pushes (out of 16) and one Reset per resetEvery ops on average (0: none).
func randomTape(r *xrand.Rand, ops, pushes, resetEvery int) []byte {
	tape := make([]byte, 0, 3*ops)
	for i := 0; i < ops; i++ {
		kind := byte(8 + r.Intn(7)) // a pop
		if r.Intn(16) < pushes {
			kind = byte(r.Intn(8))
		} else if resetEvery > 0 && r.Intn(resetEvery) == 0 {
			kind = 15
		}
		tape = append(tape, kind, byte(r.Intn(256)), byte(r.Intn(256)))
	}
	return tape
}

// TestBucketQueueMatchesIndexedHeap runs seeded tapes over every shape the
// engine's bucket rule can produce. Where width equals the quantum each
// bucket holds one key, so the queue pops IndexedHeap's exact key
// sequence; wider buckets pop out of order only within a bucket.
func TestBucketQueueMatchesIndexedHeap(t *testing.T) {
	cases := []struct {
		name   string
		shapes []tapeShape
		ops    int
		pushes int // out of 16
		resets int // one Reset per this many ops, 0 for none
	}{
		// Dial's case: one key per bucket, many equal keys and decreases.
		{"equal keys and decreases", []tapeShape{{1, 8, 1, 24}}, 4000, 10, 0},
		// The engine's width: half the quantum, the smallest key step.
		{"width half the smallest step", []tapeShape{{0.5, 255, 1, 512}}, 20000, 9, 0},
		// Span 0: every key equals the last one popped, from 0 up.
		{"zero keys", []tapeShape{{1, 0, 1, 16}}, 2000, 9, 0},
		// A 64-bucket ring the keys lap hundreds of times.
		{"ring wrap-around", []tapeShape{{1, 40, 1, 256}}, 40000, 8, 0},
		// The span cap: span/width = MaxBuckets/2, buckets 128 keys wide.
		{"capped ring", []tapeShape{{128, 1 << 20, 1, 1024}}, 20000, 9, 0},
		// Searches abandoned part-way, alternating ring sizes.
		{"reset mid-search", []tapeShape{{0.5, 255, 1, 128}, {4, 64, 0.25, 128}}, 20000, 9, 200},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := xrand.New(0xB0C4)
			q := NewBucketQueue(c.shapes[0].n)
			for trial := 0; trial < 5; trial++ {
				runTape(t, q, c.shapes, randomTape(r, c.ops, c.pushes, c.resets))
			}
		})
	}
}

// TestBucketQueueRingSize: Reset sizes the ring to span/width + 1 buckets,
// rounded up to a power of two, between 64 and MaxBuckets.
func TestBucketQueueRingSize(t *testing.T) {
	q := NewBucketQueue(4)
	for _, c := range []struct {
		width, span float64
		want        int
	}{
		{1, 0, 64},
		{0.5, 255, 512},   // 511 buckets
		{0.5, 255.5, 512}, // 512 buckets
		{0.5, 256, 1024},  // 513 buckets
		{1, 1 << 20, MaxBuckets},
		{math.Inf(1), 1, 64},
		{0, 1, 64},
	} {
		q.Reset(c.width, c.span)
		if got := q.mask + 1; got != c.want {
			t.Errorf("Reset(%g, %g): ring of %d buckets, want %d", c.width, c.span, got, c.want)
		}
	}
}

// TestBucketQueueResetEmptiesAHeldQueue: a Reset while the queue holds ids
// in several buckets leaves it empty, every id absent (a push of any key
// is a fresh insert), and a shorter ring that starts clean.
func TestBucketQueueResetEmptiesAHeldQueue(t *testing.T) {
	const n = 200
	q := NewBucketQueue(n)
	q.Reset(1, 1000)
	for id := 0; id < n; id++ {
		q.PushOrDecrease(id, float64(id*5))
	}
	q.PopMin()
	q.Reset(1, 10)
	if q.Len() != 0 {
		t.Fatalf("Len %d after Reset", q.Len())
	}
	for id := n - 1; id >= 0; id-- {
		if !q.PushOrDecrease(id, 1e9) {
			t.Fatalf("id %d still counted as held after Reset", id)
		}
		q.PopMin()
	}
	q.Reset(1, 10)
	q.PushOrDecrease(3, 2)
	q.PushOrDecrease(4, 3)
	q.PushOrDecrease(4, 2.5)
	if id, key := q.PopMin(); id != 3 || key != 2 || q.Len() != 1 {
		t.Fatalf("PopMin = (%d, %g) with %d left, want (3, 2) with 1", id, key, q.Len())
	}
}

// TestBucketQueueBeyondTheRing: a key past the ring's reach, which the
// engine's rule never produces, is filed in the farthest bucket and may pop
// early, but it pops exactly once and with its own key.
func TestBucketQueueBeyondTheRing(t *testing.T) {
	q := NewBucketQueue(4)
	q.Reset(1, 10) // 64 buckets
	q.PushOrDecrease(0, 0)
	q.PopMin()
	q.PushOrDecrease(1, 1000)
	q.PushOrDecrease(2, 500)
	q.PushOrDecrease(3, 5)
	want := [][2]float64{{3, 5}, {1, 1000}, {2, 500}}
	for _, w := range want {
		if id, key := q.PopMin(); id != int(w[0]) || key != w[1] {
			t.Fatalf("PopMin = (%d, %g), want (%g, %g)", id, key, w[0], w[1])
		}
	}
}

// TestBucketQueueOneBucketWidths: a width whose reciprocal is not a
// positive finite number puts every key in one bucket, popped oldest
// first, without a panic.
func TestBucketQueueOneBucketWidths(t *testing.T) {
	for _, width := range []float64{0, -1, math.NaN(), math.Inf(1), 5e-324} {
		q := NewBucketQueue(3)
		q.Reset(width, 100)
		q.PushOrDecrease(0, 3)
		q.PushOrDecrease(1, 1)
		q.PushOrDecrease(2, 2)
		q.PushOrDecrease(0, 0.5) // a decrease within the bucket keeps its place
		for _, want := range []int{0, 1, 2} {
			if id, _ := q.PopMin(); id != want {
				t.Fatalf("width %g: PopMin = %d, want %d (oldest first)", width, id, want)
			}
		}
	}
}

func TestBucketQueuePopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("PopMin on an empty BucketQueue did not panic")
		}
	}()
	NewBucketQueue(1).PopMin()
}

// FuzzBucketQueue runs arbitrary tapes under a shape the first byte picks:
// width 2^-3..2^4, a span of 0..255 quanta of 2^-2..2^1, and up to 64 ids.
// With reset ops the tape alternates with a second, narrower shape.
func FuzzBucketQueue(f *testing.F) {
	f.Add(byte(0), byte(8), []byte{0, 1, 0, 0, 2, 0, 8, 0, 0, 0, 3, 5, 9, 0, 0})
	f.Add(byte(3), byte(255), []byte{1, 7, 255, 2, 7, 3, 15, 0, 0, 4, 9, 1, 12, 0, 0, 12, 0, 0})
	f.Add(byte(7), byte(1), randomTape(xrand.New(5), 300, 9, 40))
	f.Fuzz(func(t *testing.T, shape, span byte, ops []byte) {
		quantum := math.Ldexp(1, int(shape>>3)%4-2)
		a := tapeShape{
			width:   math.Ldexp(1, int(shape%8)-3),
			span:    quantum * float64(span),
			quantum: quantum,
			n:       1 + int(shape>>5)*8 + int(span)%8,
		}
		b := a
		b.width, b.span = a.width/2, a.span/2
		runTape(t, NewBucketQueue(a.n), []tapeShape{a, b}, ops)
	})
}
