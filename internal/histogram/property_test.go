package histogram

// Property tests of the threshold machinery, seeded through internal/xrand
// so every run is replayable. Two monotonicity laws anchor the paper's
// tuning story (§IV-E): raising a percentile fraction can only raise (never
// lower) the resulting bucket threshold — otherwise the Fig 4/5 sweeps
// would not be monotone in admitted traffic — and BucketOf must be monotone
// in distance, or the holds would release updates out of order.

import (
	"math"
	"testing"

	"acic/internal/xrand"
)

// randomHistogram builds a histogram with a plausible mid-flight shape:
// mostly positive buckets, a few negative ones (remote decrements racing
// local increments), concentrated in the low buckets like real frontiers.
func randomHistogram(r *xrand.Rand) *Histogram {
	buckets := 8 + r.Intn(505)
	width := r.Range(0.5, 20)
	h := New(buckets, width)
	n := r.Intn(2000)
	for i := 0; i < n; i++ {
		d := r.Exp(1.0 / (width * float64(1+r.Intn(buckets)))) // skewed low
		if r.Intn(10) == 0 {
			h.AddProcessed(d)
		} else {
			h.AddCreated(d)
		}
	}
	return h
}

func TestPercentileBucketMonotoneInP(t *testing.T) {
	r := xrand.New(0xACC)
	for trial := 0; trial < 200; trial++ {
		h := randomHistogram(r)
		p1 := r.Range(0.001, 1)
		p2 := r.Range(0.001, 1)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		b1, b2 := h.PercentileBucket(p1), h.PercentileBucket(p2)
		if b1 > b2 {
			t.Fatalf("trial %d: PercentileBucket(%g) = %d > PercentileBucket(%g) = %d",
				trial, p1, b1, p2, b2)
		}
		if last := h.NumBuckets() - 1; b1 < 0 || b2 > last {
			t.Fatalf("trial %d: threshold out of range [0,%d]: %d, %d", trial, last, b1, b2)
		}
	}
}

// TestThresholdsMonotoneInParams checks the user-facing law: raising
// p_tram or p_pq never lowers the corresponding broadcast threshold, for
// both the paper's two-tier policy and the smooth refinement. The low-
// watermark branch is percentile-independent, so it trivially satisfies
// the law; the interesting cases are the loaded histograms.
func TestThresholdsMonotoneInParams(t *testing.T) {
	r := xrand.New(0xACC2)
	numPEs := 16
	for trial := 0; trial < 200; trial++ {
		h := randomHistogram(r)
		lo := Params{PTram: r.Range(0.001, 1), PPQ: r.Range(0.001, 1), LowWatermarkPerPE: int64(r.Intn(20))}
		hi := lo
		hi.PTram = math.Min(1, hi.PTram+r.Range(0, 1-hi.PTram))
		hi.PPQ = math.Min(1, hi.PPQ+r.Range(0, 1-hi.PPQ))
		for _, compute := range []struct {
			name string
			fn   func(*Histogram, int64, int, Params, bool) Thresholds
		}{
			{"two-tier", ComputeThresholds},
			{"smooth", ComputeSmoothThresholds},
		} {
			for _, growing := range []bool{false, true} {
				a := compute.fn(h, h.Positive(), numPEs, lo, growing)
				b := compute.fn(h, h.Positive(), numPEs, hi, growing)
				if b.Tram < a.Tram {
					t.Fatalf("trial %d %s (growing %v): raising p_tram %g→%g lowered t_tram %d→%d",
						trial, compute.name, growing, lo.PTram, hi.PTram, a.Tram, b.Tram)
				}
				if b.PQ < a.PQ {
					t.Fatalf("trial %d %s (growing %v): raising p_pq %g→%g lowered t_pq %d→%d",
						trial, compute.name, growing, lo.PPQ, hi.PPQ, a.PQ, b.PQ)
				}
			}
		}
	}
}

func TestBucketOfMonotoneInDistance(t *testing.T) {
	r := xrand.New(0xACC3)
	for trial := 0; trial < 500; trial++ {
		h := New(1+r.Intn(512), r.Range(0.5, 10))
		d1 := r.Range(0, 1e6)
		d2 := r.Range(0, 1e6)
		if d1 > d2 {
			d1, d2 = d2, d1
		}
		if b1, b2 := h.BucketOf(d1), h.BucketOf(d2); b1 > b2 {
			t.Fatalf("trial %d: BucketOf(%g) = %d > BucketOf(%g) = %d (width %g)",
				trial, d1, b1, d2, b2, h.Width())
		}
	}

	// Hostile inputs clamp to the ends of the range instead of panicking:
	// the fuzzer feeds raw float bits, and historically int(d/width)
	// overflowed for +Inf and overflow-scale distances.
	h := New(64, 2)
	for _, tc := range []struct {
		d    float64
		want int
	}{
		{math.NaN(), 63}, // NaN is poisoned, not near-zero: top bucket, like +Inf
		{-1, 0},
		{math.Inf(-1), 0},
		{0, 0},
		{math.Inf(1), 63},
		{math.MaxFloat64, 63},
		{1e300, 63},
	} {
		if got := h.BucketOf(tc.d); got != tc.want {
			t.Errorf("BucketOf(%g) = %d, want %d", tc.d, got, tc.want)
		}
	}
}

// refBucketOf is the division the reciprocal replaced, kept as the test's
// reference: floor(d / width), clamped.
func refBucketOf(h *Histogram, d float64) int {
	b := d / h.Width()
	if b >= float64(h.NumBuckets()) {
		return h.NumBuckets() - 1
	}
	return int(b)
}

// checkBracket asserts the definition BucketOf now implements — the bucket
// is the b whose edges bracket d — for a finite d > 0.
func checkBracket(t *testing.T, h *Histogram, d float64) {
	b, w, last := h.BucketOf(d), h.Width(), h.NumBuckets()-1
	if b < 0 || b > last {
		t.Fatalf("width %v: BucketOf(%v) = %d outside [0,%d]", w, d, b, last)
	}
	if float64(b)*w > d {
		t.Fatalf("width %v: BucketOf(%v) = %d, but its lower edge %v is above d", w, d, b, float64(b)*w)
	}
	if b < last && float64(b+1)*w <= d {
		t.Fatalf("width %v: BucketOf(%v) = %d, but the next bucket starts at %v", w, d, b, float64(b+1)*w)
	}
	if ref := refBucketOf(h, d); b-ref > 1 || ref-b > 1 {
		t.Fatalf("width %v: BucketOf(%v) = %d, floor(d/width) = %d", w, d, b, ref)
	}
}

// paperWidths are log(2^10) … log(2^20), the widths real runs use, and the
// round ones the table tests use.
func paperWidths() []float64 {
	ws := []float64{0.25, 1, 2, 10}
	for scale := 10; scale <= 20; scale++ {
		ws = append(ws, PaperWidth(1<<scale))
	}
	return ws
}

// bucketEdges returns k·width and its two float64 neighbours for every
// bucket edge of h, plus the first edges past the last bucket.
func bucketEdges(h *Histogram) []float64 {
	var ds []float64
	for k := 1; k <= h.NumBuckets()+2; k++ {
		e := float64(k) * h.Width()
		ds = append(ds, math.Nextafter(e, 0), e, math.Nextafter(e, math.Inf(1)))
	}
	return ds
}

func TestBucketOfBracketsDistance(t *testing.T) {
	r := xrand.New(0xB0C4E7)
	for _, w := range paperWidths() {
		h := New(DefaultBuckets, w)
		prev := 0
		for _, d := range bucketEdges(h) { // ascending
			checkBracket(t, h, d)
			if b := h.BucketOf(d); b < prev {
				t.Fatalf("width %v: BucketOf(%v) = %d after %d: not monotone across an edge", w, d, b, prev)
			} else {
				prev = b
			}
		}
		for i := 0; i < 20000; i++ {
			checkBracket(t, h, r.Range(0, 1.01*float64(DefaultBuckets)*w))
		}
		// The smallest positive distances stay in bucket 0.
		for _, d := range []float64{math.SmallestNonzeroFloat64, 1e-300, w / 2} {
			if b := h.BucketOf(d); b != 0 {
				t.Errorf("width %v: BucketOf(%v) = %d, want 0", w, d, b)
			}
		}
	}
}

// FuzzBucketOf seeds the fuzzer with every bucket edge and its neighbours
// at the paper's widths: the inputs where a reciprocal and a division can
// disagree.
func FuzzBucketOf(f *testing.F) {
	for _, w := range paperWidths() {
		for _, d := range bucketEdges(New(DefaultBuckets, w)) {
			f.Add(w, d)
		}
	}
	f.Add(2.0, math.NaN())
	f.Add(2.0, math.Inf(1))
	f.Add(2.0, math.MaxFloat64)
	f.Fuzz(func(t *testing.T, w, d float64) {
		if !(w >= 1e-3 && w <= 1e6) {
			return // widths a run can have; New rejects the degenerate ones
		}
		h := New(DefaultBuckets, w)
		b := h.BucketOf(d)
		switch {
		case math.IsNaN(d) || math.IsInf(d, 1):
			if b != DefaultBuckets-1 {
				t.Fatalf("BucketOf(%v) = %d, want the last bucket", d, b)
			}
		case d <= 0:
			if b != 0 {
				t.Fatalf("BucketOf(%v) = %d, want 0", d, b)
			}
		default:
			checkBracket(t, h, d)
			if up := h.BucketOf(math.Nextafter(d, math.Inf(1))); up < b {
				t.Fatalf("width %v: BucketOf drops from %d to %d one ulp above %v", w, b, up, d)
			}
		}
	})
}
