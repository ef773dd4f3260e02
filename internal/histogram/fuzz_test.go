package histogram

// Fuzzing Merge's algebra: the reduction tree combines per-PE histograms in
// whatever order the spanning tree and message timing dictate, so the
// thresholds are only well-defined if Merge is commutative and associative
// and conserves every counter. The fuzzer builds three histograms from an
// arbitrary operation tape — including hostile distances (NaN, ±Inf,
// overflow-scale values) — and checks the algebra on them.

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// histEqual compares shape, every bucket, and both ride-along counters.
func histEqual(a, b *Histogram) bool {
	if a.NumBuckets() != b.NumBuckets() || a.Width() != b.Width() ||
		a.Created != b.Created || a.Processed != b.Processed {
		return false
	}
	for i := 0; i < a.NumBuckets(); i++ {
		if a.Bucket(i) != b.Bucket(i) {
			return false
		}
	}
	return true
}

func FuzzHistogramMerge(f *testing.F) {
	tape := []byte{8, 4}
	for i, d := range []float64{0.5, 3.25, 1e300, math.Inf(1), math.NaN(), -2, 0} {
		op := []byte{byte(i), byte(i >> 1)}
		var bits [8]byte
		binary.LittleEndian.PutUint64(bits[:], math.Float64bits(d))
		tape = append(tape, append(op, bits[:]...)...)
	}
	f.Add(tape)
	f.Add([]byte{1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		bucketCount := int(data[0])%128 + 1
		width := 0.25 * float64(int(data[1])%32+1)
		hs := [3]*Histogram{New(bucketCount, width), New(bucketCount, width), New(bucketCount, width)}
		for i := 2; i+10 <= len(data); i += 10 {
			h := hs[int(data[i])%3]
			d := math.Float64frombits(binary.LittleEndian.Uint64(data[i+2 : i+10]))
			if data[i+1]%2 == 0 {
				h.AddCreated(d)
			} else {
				h.AddProcessed(d)
			}
		}
		a, b, c := hs[0], hs[1], hs[2]
		aBefore, bBefore := a.Snapshot(), b.Snapshot()

		// Commutativity: A+B == B+A.
		ab := a.Snapshot()
		ab.Merge(b)
		ba := b.Snapshot()
		ba.Merge(a)
		if !histEqual(ab, ba) {
			t.Fatalf("merge not commutative:\nA+B %v created=%d processed=%d\nB+A %v created=%d processed=%d",
				ab, ab.Created, ab.Processed, ba, ba.Created, ba.Processed)
		}

		// Associativity: (A+B)+C == A+(B+C).
		abc1 := ab.Snapshot()
		abc1.Merge(c)
		bc := b.Snapshot()
		bc.Merge(c)
		abc2 := a.Snapshot()
		abc2.Merge(bc)
		if !histEqual(abc1, abc2) {
			t.Fatal("merge not associative")
		}

		// Conservation: every counter of the merge is the sum of the parts.
		if got, want := abc1.Created, a.Created+b.Created+c.Created; got != want {
			t.Fatalf("created not conserved: %d, want %d", got, want)
		}
		if got, want := abc1.Processed, a.Processed+b.Processed+c.Processed; got != want {
			t.Fatalf("processed not conserved: %d, want %d", got, want)
		}
		if got, want := abc1.Sum(), a.Sum()+b.Sum()+c.Sum(); got != want {
			t.Fatalf("bucket sum not conserved: %d, want %d", got, want)
		}
		for i := 0; i < bucketCount; i++ {
			if got, want := abc1.Bucket(i), a.Bucket(i)+b.Bucket(i)+c.Bucket(i); got != want {
				t.Fatalf("bucket %d not conserved: %d, want %d", i, got, want)
			}
		}
		// Merging never mutates the argument, only the receiver.
		if !histEqual(a, aBefore) || !histEqual(b, bBefore) {
			t.Fatal("merge mutated its argument")
		}
	})
}

// FuzzHistogramOps checks the touched-prefix bound (Top) against a
// full-range reference. Every scan, copy and merge walks only [0, Top), so
// a mutation that forgets to raise Top, or a SnapshotInto that leaves a
// pooled destination's old tail behind, shows up as a bucket or a scan
// that disagrees with a plain slice model that always walks every bucket.
//
// The tape drives four histograms (so SnapshotInto always has a
// destination whose old Top may be higher than its source's): ten bytes
// per step, an op byte, an argument byte and a distance or count.
func FuzzHistogramOps(f *testing.F) {
	step := func(op, arg byte, x float64) []byte {
		var bits [8]byte
		binary.LittleEndian.PutUint64(bits[:], math.Float64bits(x))
		return append([]byte{op, arg}, bits[:]...)
	}
	// A wide histogram snapshotted over by a narrow one: histogram 1 sets
	// bucket 40, histogram 0 touches bucket 2 only, then 0 → 1.
	tail := []byte{63, 3}
	tail = append(tail, step(2*4+1, 40, math.Float64frombits(5))...)
	tail = append(tail, step(0*4+0, 0, 2.5)...)
	tail = append(tail, step(5*4+0, 0, 0)...)
	tail = append(tail, step(3*4+2, 1, 0)...)
	f.Add(tail)
	// Every op once, with hostile distances.
	all := []byte{31, 1}
	for i, d := range []float64{0.5, 1e300, math.Inf(1), math.NaN(), -2, 7, 3.25} {
		all = append(all, step(byte(i*4+i%4), byte(i+1), d)...)
	}
	f.Add(all)
	f.Add([]byte{0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := int(data[0])%128 + 1
		width := 0.25 * float64(int(data[1])%32+1)
		var hs [4]*Histogram
		var ref [4]refHist
		for i := range hs {
			hs[i] = New(n, width)
			ref[i] = refHist{b: make([]int64, n)}
		}
		for i := 2; i+10 <= len(data); i += 10 {
			op, who, arg := data[i]/4%6, int(data[i]%4), data[i+1]
			x := math.Float64frombits(binary.LittleEndian.Uint64(data[i+2 : i+10]))
			h, r := hs[who], &ref[who]
			other := (who + 1 + int(arg)%3) % 4
			switch op {
			case 0:
				b := h.AddCreated(x)
				if want := h.BucketOf(x); b != want {
					t.Fatalf("step %d: AddCreated returned bucket %d, BucketOf says %d", i, b, want)
				}
				r.b[b]++
				r.created++
			case 1:
				h.AddProcessed(x)
				r.b[h.BucketOf(x)]--
				r.processed++
			case 2:
				idx, v := int(arg)%n, int64(int16(math.Float64bits(x)))
				h.SetBucket(idx, v)
				r.b[idx] = v
			case 3:
				h.Merge(hs[other])
				for k, v := range ref[other].b {
					r.b[k] += v
				}
				r.created += ref[other].created
				r.processed += ref[other].processed
			case 4:
				h.Reset()
				*r = refHist{b: make([]int64, n)}
			case 5:
				h.SnapshotInto(hs[other])
				ref[other] = refHist{b: append([]int64(nil), r.b...), created: r.created, processed: r.processed}
			}
			for k := range hs {
				ref[k].check(t, i, k, hs[k])
			}
		}
	})
}

// refHist is FuzzHistogramOps's model: a plain slice whose every scan
// walks all buckets.
type refHist struct {
	b                  []int64
	created, processed int64
}

func (r *refHist) check(t *testing.T, step, which int, h *Histogram) {
	t.Helper()
	fail := func(what string, got, want any) {
		t.Helper()
		t.Fatalf("step %d, histogram %d (top %d of %d): %s = %v, reference %v", step, which, h.Top(), len(r.b), what, got, want)
	}
	if h.Top() < 0 || h.Top() > len(r.b) {
		fail("Top", h.Top(), "in [0, NumBuckets]")
	}
	var sum, pos int64
	hi := -1
	for k, v := range r.b {
		if got := h.Bucket(k); got != v {
			fail(fmt.Sprintf("Bucket(%d)", k), got, v)
		}
		if v != 0 && k >= h.Top() {
			fail(fmt.Sprintf("nonzero bucket %d at or above Top", k), v, 0)
		}
		sum += v
		if v > 0 {
			pos += v
			hi = k
		}
	}
	if h.Created != r.created || h.Processed != r.processed {
		fail("Created/Processed", [2]int64{h.Created, h.Processed}, [2]int64{r.created, r.processed})
	}
	if got := h.Sum(); got != sum {
		fail("Sum", got, sum)
	}
	if got := h.Positive(); got != pos {
		fail("Positive", got, pos)
	}
	if got := h.HighestNonEmpty(); got != hi {
		fail("HighestNonEmpty", got, hi)
	}
	for _, p := range []float64{0.05, 0.5, 0.999, 1} {
		want := len(r.b) - 1
		if pos > 0 {
			var running int64
			for k, v := range r.b {
				if v > 0 {
					running += v
				}
				if float64(running) >= p*float64(pos) {
					want = k
					break
				}
			}
		}
		if got := h.PercentileBucket(p); got != want {
			fail(fmt.Sprintf("PercentileBucket(%g)", p), got, want)
		}
	}
	params := DefaultParams()
	params.LowWatermarkPerPE = 2
	for _, growing := range []bool{false, true} {
		want := Thresholds{Tram: len(r.b) - 1, PQ: len(r.b) - 1}
		if growing || pos > params.LowWatermarkPerPE*4 {
			want = Thresholds{Tram: h.PercentileBucket(params.PTram), PQ: h.PercentileBucket(params.PPQ)}
		}
		if got := ComputeThresholds(h, pos, 4, params, growing); got != want {
			fail(fmt.Sprintf("ComputeThresholds(growing %v)", growing), got, want)
		}
	}
}
