package histogram

import (
	"math"
	"testing"
	"testing/quick"

	"acic/internal/xrand"
)

func TestBucketOfMapping(t *testing.T) {
	h := New(512, 10)
	cases := []struct {
		d    float64
		want int
	}{
		{-3, 0},
		{0, 0},
		{9.99, 0},
		{10, 1},
		{25, 2},
		{5109.99, 510},
		{5110, 511},
		{1e12, 511},        // clamps to last bucket
		{math.NaN(), 511},  // poisoned value: top bucket, like +Inf
		{math.Inf(1), 511}, // clamps to last bucket
	}
	for _, c := range cases {
		if got := h.BucketOf(c.d); got != c.want {
			t.Errorf("BucketOf(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestPaperWidth(t *testing.T) {
	if w := PaperWidth(int(math.Exp(10))); math.Abs(w-10) > 0.01 {
		t.Errorf("PaperWidth(e^10) = %v, want ~10", w)
	}
	if w := PaperWidth(2); w != 1 {
		t.Errorf("PaperWidth(2) = %v, want clamp to 1", w)
	}
}

func TestNewPanics(t *testing.T) {
	for _, c := range []struct {
		n int
		w float64
	}{{0, 1}, {-1, 1}, {10, 0}, {10, -2}, {10, math.NaN()}, {10, math.Inf(1)}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d, %v) did not panic", c.n, c.w)
				}
			}()
			New(c.n, c.w)
		}()
	}
}

func TestCreatedProcessedLifecycle(t *testing.T) {
	h := New(8, 1)
	h.AddCreated(3.5)
	h.AddCreated(3.7)
	h.AddCreated(6.0)
	if h.Created != 3 || h.Processed != 0 {
		t.Fatalf("counters = (%d,%d)", h.Created, h.Processed)
	}
	if h.Bucket(3) != 2 || h.Bucket(6) != 1 {
		t.Fatalf("bucket counts wrong: %v %v", h.Bucket(3), h.Bucket(6))
	}
	h.AddProcessed(3.5)
	if h.Bucket(3) != 1 {
		t.Fatalf("bucket 3 after process = %d", h.Bucket(3))
	}
	if h.Active() != 2 {
		t.Fatalf("Active = %d", h.Active())
	}
	if h.Sum() != 2 {
		t.Fatalf("Sum = %d", h.Sum())
	}
}

func TestRemoteDecrementGoesNegativeLocally(t *testing.T) {
	// The PE that processes an update decrements its own local histogram
	// even when a different PE created it (§II-B); locally that can go
	// negative, and only the merged histogram must balance.
	creator := New(8, 1)
	processor := New(8, 1)
	creator.AddCreated(2.0)
	processor.AddProcessed(2.0)
	if processor.Bucket(2) != -1 {
		t.Fatalf("processor bucket = %d, want -1", processor.Bucket(2))
	}
	global := New(8, 1)
	global.Merge(creator)
	global.Merge(processor)
	if global.Bucket(2) != 0 {
		t.Fatalf("merged bucket = %d, want 0", global.Bucket(2))
	}
	if global.Created != 1 || global.Processed != 1 {
		t.Fatalf("merged counters = (%d,%d)", global.Created, global.Processed)
	}
	if global.Active() != 0 {
		t.Fatalf("merged Active = %d", global.Active())
	}
}

func TestMergePanicsOnShapeMismatch(t *testing.T) {
	a := New(8, 1)
	b := New(16, 1)
	defer func() {
		if recover() == nil {
			t.Error("Merge with different bucket counts did not panic")
		}
	}()
	a.Merge(b)
}

func TestMergePanicsOnWidthMismatch(t *testing.T) {
	a := New(8, 1)
	b := New(8, 2)
	defer func() {
		if recover() == nil {
			t.Error("Merge with different widths did not panic")
		}
	}()
	a.Merge(b)
}

func TestSnapshotIsIndependentCopy(t *testing.T) {
	h := New(8, 1)
	h.AddCreated(1)
	s := h.Snapshot()
	h.AddCreated(1)
	if s.Bucket(1) != 1 {
		t.Fatalf("snapshot mutated: bucket = %d", s.Bucket(1))
	}
	if s.Created != 1 {
		t.Fatalf("snapshot Created = %d", s.Created)
	}
}

func TestResetClears(t *testing.T) {
	h := New(8, 1)
	h.AddCreated(3)
	h.AddProcessed(5)
	h.Reset()
	if h.Sum() != 0 || h.Created != 0 || h.Processed != 0 {
		t.Fatal("Reset did not clear state")
	}
}

func TestLowestHighestNonEmpty(t *testing.T) {
	h := New(16, 1)
	if h.LowestNonEmpty() != -1 || h.HighestNonEmpty() != -1 {
		t.Fatal("empty histogram should report -1")
	}
	h.AddCreated(4.2)
	h.AddCreated(11.9)
	if got := h.LowestNonEmpty(); got != 4 {
		t.Errorf("LowestNonEmpty = %d, want 4", got)
	}
	if got := h.HighestNonEmpty(); got != 11 {
		t.Errorf("HighestNonEmpty = %d, want 11", got)
	}
}

func TestPercentileBucket(t *testing.T) {
	h := New(10, 1)
	// 10 updates in bucket 2, 80 in bucket 5, 10 in bucket 9.
	for i := 0; i < 10; i++ {
		h.AddCreated(2.5)
	}
	for i := 0; i < 80; i++ {
		h.AddCreated(5.5)
	}
	for i := 0; i < 10; i++ {
		h.AddCreated(9.5)
	}
	cases := []struct {
		p    float64
		want int
	}{
		{0.05, 2},  // 5% reached within bucket 2
		{0.10, 2},  // exactly the bucket-2 mass
		{0.11, 5},  // needs bucket 5
		{0.90, 5},  // 90% reached at bucket 5
		{0.91, 9},  // needs the tail
		{1.00, 9},  // everything
		{0.999, 9}, // paper's optimal p_tram
	}
	for _, c := range cases {
		if got := h.PercentileBucket(c.p); got != c.want {
			t.Errorf("PercentileBucket(%v) = %d, want %d", c.p, got, c.want)
		}
	}
}

func TestPercentileBucketEmptyReturnsLast(t *testing.T) {
	h := New(32, 1)
	if got := h.PercentileBucket(0.5); got != 31 {
		t.Errorf("empty histogram percentile = %d, want 31", got)
	}
}

func TestPercentileBucketIgnoresNegativeCounts(t *testing.T) {
	h := New(10, 1)
	h.AddProcessed(1.5) // bucket 1 goes to -1 (remote decrement)
	for i := 0; i < 10; i++ {
		h.AddCreated(7.5)
	}
	if got := h.PercentileBucket(0.5); got != 7 {
		t.Errorf("PercentileBucket = %d, want 7 (negative bucket skipped)", got)
	}
}

func TestPercentileBucketPanicsOutOfRange(t *testing.T) {
	h := New(4, 1)
	for _, p := range []float64{0, -0.1, 1.01, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("PercentileBucket(%v) did not panic", p)
				}
			}()
			h.PercentileBucket(p)
		}()
	}
}

func TestComputeThresholdsLowWatermark(t *testing.T) {
	g := New(64, 1)
	p := DefaultParams()
	// 100 PEs, watermark 100 → limit 10000 active; put 5000 active updates.
	for i := 0; i < 5000; i++ {
		g.AddCreated(float64(i % 60))
	}
	th := ComputeThresholds(g, 100, p, false)
	if th.Tram != 63 || th.PQ != 63 {
		t.Errorf("low-parallelism thresholds = %+v, want both 63", th)
	}
}

// TestComputeThresholdsGateOnDirection pins the low-parallelism release to
// a frontier that is not growing: below the watermark, a growing population
// (the start of a run) keeps the percentile thresholds, a steady or
// shrinking one (the tail) releases every bucket.
func TestComputeThresholdsGateOnDirection(t *testing.T) {
	g := New(64, 1)
	for i := 0; i < 40; i++ {
		g.AddCreated(float64(i % 20))
	}
	p := DefaultParams() // 4 PEs → limit 400, far above the 40 active
	if th := ComputeThresholds(g, 4, p, true); th.PQ != 0 || th.Tram != 19 {
		t.Errorf("below the watermark while growing: %+v, want the percentiles {Tram:19 PQ:0}", th)
	}
	if th := ComputeThresholds(g, 4, p, false); th.Tram != 63 || th.PQ != 63 {
		t.Errorf("below the watermark while not growing: %+v, want every bucket", th)
	}
	// An empty histogram releases everything either way: there is nothing
	// to order, and the run must be able to drain.
	empty := New(64, 1)
	for _, growing := range []bool{false, true} {
		if th := ComputeThresholds(empty, 4, p, growing); th.Tram != 63 || th.PQ != 63 {
			t.Errorf("empty histogram (growing %v): %+v, want every bucket", growing, th)
		}
	}
}

// TestSmoothThresholdsBoostOnlyWhenNotGrowing applies the same gate to the
// smooth policy: a growing population gets the configured percentiles, the
// same population not growing is boosted open.
func TestSmoothThresholdsBoostOnlyWhenNotGrowing(t *testing.T) {
	g := New(64, 1)
	for i := 0; i < 40; i++ {
		g.AddCreated(float64(i % 20))
	}
	p := DefaultParams()
	if th := ComputeSmoothThresholds(g, 4, p, true); th != ComputeThresholds(g, 4, p, true) {
		t.Errorf("growing smooth thresholds %+v, want the two-tier percentiles", th)
	}
	if th := ComputeSmoothThresholds(g, 4, p, false); th.Tram != 63 || th.PQ != 63 {
		t.Errorf("not-growing smooth thresholds %+v, want every bucket", th)
	}
}

func TestComputeThresholdsPercentiles(t *testing.T) {
	g := New(64, 1)
	p := Params{PTram: 0.999, PPQ: 0.05, LowWatermarkPerPE: 100}
	// 2 PEs → limit 200; add 10000 updates uniformly over buckets 0..49.
	for i := 0; i < 10000; i++ {
		g.AddCreated(float64(i % 50))
	}
	th := ComputeThresholds(g, 2, p, false)
	if th.PQ >= th.Tram {
		t.Errorf("expected PQ threshold below tram threshold: %+v", th)
	}
	// p_pq = 0.05 of a uniform [0,50) distribution lands in bucket ~2.
	if th.PQ < 1 || th.PQ > 4 {
		t.Errorf("PQ threshold = %d, want ~2", th.PQ)
	}
	// p_tram = 0.999 lands at the top of the occupied range.
	if th.Tram < 48 || th.Tram > 49 {
		t.Errorf("Tram threshold = %d, want ~49", th.Tram)
	}
}

func TestSmoothThresholdsConvergeToPercentilesUnderLoad(t *testing.T) {
	// Heavily loaded: active ≫ watermark·PEs, so boost ≈ 0 and the smooth
	// policy matches the paper's percentile rule.
	g := New(64, 1)
	for i := 0; i < 1000000; i++ {
		g.AddCreated(float64(i % 50))
	}
	p := DefaultParams()
	smooth := ComputeSmoothThresholds(g, 2, p, false)
	paper := ComputeThresholds(g, 2, p, false)
	if smooth.Tram != paper.Tram {
		t.Errorf("tram: smooth %d vs paper %d under heavy load", smooth.Tram, paper.Tram)
	}
	if smooth.PQ > paper.PQ+2 {
		t.Errorf("pq: smooth %d far above paper %d under heavy load", smooth.PQ, paper.PQ)
	}
}

func TestSmoothThresholdsOpenWhenDrained(t *testing.T) {
	g := New(64, 1)
	for i := 0; i < 50; i++ {
		g.AddCreated(float64(i))
	}
	// 50 active ≤ 100×4 watermark: both policies release everything.
	p := DefaultParams()
	smooth := ComputeSmoothThresholds(g, 4, p, false)
	if smooth.Tram != 63 || smooth.PQ != 63 {
		t.Errorf("drained smooth thresholds = %+v, want max", smooth)
	}
	empty := New(64, 1)
	se := ComputeSmoothThresholds(empty, 4, p, false)
	if se.Tram != 63 || se.PQ != 63 {
		t.Errorf("empty smooth thresholds = %+v", se)
	}
}

func TestSmoothThresholdsMonotoneInActive(t *testing.T) {
	// More active updates → tighter (lower or equal) pq threshold.
	p := DefaultParams()
	prev := 1 << 30
	for _, n := range []int{500, 5000, 50000, 500000} {
		g := New(64, 1)
		for i := 0; i < n; i++ {
			g.AddCreated(float64(i % 60))
		}
		th := ComputeSmoothThresholds(g, 1, p, false)
		if th.PQ > prev {
			t.Errorf("active=%d: PQ threshold %d rose above %d", n, th.PQ, prev)
		}
		prev = th.PQ
	}
}

func TestDefaultParamsMatchPaper(t *testing.T) {
	p := DefaultParams()
	if p.PTram != 0.999 || p.PPQ != 0.05 || p.LowWatermarkPerPE != 100 {
		t.Errorf("DefaultParams = %+v, want paper's §IV-E optimum", p)
	}
}

func TestStringSparkline(t *testing.T) {
	h := New(512, 1)
	for i := 0; i < 100; i++ {
		h.AddCreated(float64(i))
	}
	s := h.String()
	if s == "" {
		t.Fatal("String() empty")
	}
	empty := New(4, 1)
	if empty.String() == "" {
		t.Fatal("String() on empty histogram empty")
	}
}

// Property: merging N random local histograms then checking Active equals
// the sum of created minus processed events, and every bucket balances when
// every created event is eventually processed.
func TestQuickMergeBalance(t *testing.T) {
	f := func(seed uint64, nPE uint8) bool {
		pes := int(nPE%7) + 1
		r := xrand.New(seed)
		locals := make([]*Histogram, pes)
		for i := range locals {
			locals[i] = New(32, 2)
		}
		// Generate 200 updates: created on one random PE, processed on
		// another.
		type upd struct{ d float64 }
		var live []upd
		for i := 0; i < 200; i++ {
			d := r.Float64() * 64
			locals[r.Intn(pes)].AddCreated(d)
			live = append(live, upd{d})
			// Randomly process some pending updates.
			if len(live) > 0 && r.Float64() < 0.5 {
				k := r.Intn(len(live))
				locals[r.Intn(pes)].AddProcessed(live[k].d)
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		}
		global := New(32, 2)
		for _, l := range locals {
			global.Merge(l)
		}
		if global.Active() != int64(len(live)) {
			return false
		}
		return global.Sum() == int64(len(live))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: PercentileBucket is monotone in p.
func TestQuickPercentileMonotone(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		h := New(64, 1)
		n := 1 + r.Intn(500)
		for i := 0; i < n; i++ {
			h.AddCreated(r.Float64() * 64)
		}
		prev := -1
		for _, p := range []float64{0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.999, 1.0} {
			b := h.PercentileBucket(p)
			if b < prev {
				return false
			}
			prev = b
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAddCreated(b *testing.B) {
	h := New(512, 10)
	for i := 0; i < b.N; i++ {
		h.AddCreated(float64(i % 5000))
	}
}

// BenchmarkBucketOf is one bucket computation — the unit every lifecycle
// step of an update (create, arrive, complete) pays once — at the paper's
// width for 2^15 vertices, over distances spread across all 512 buckets.
// Each result picks the next distance, as a bucket picks the counter or the
// threshold branch that follows it, so the row reads latency.
func BenchmarkBucketOf(b *testing.B) {
	h := New(DefaultBuckets, PaperWidth(1<<15))
	r := xrand.New(24)
	ds := make([]float64, 1<<12)
	for i := range ds {
		ds[i] = r.Range(0, float64(DefaultBuckets)*h.Width())
	}
	b.ReportAllocs()
	sum := 0
	for i := 0; i < b.N; i++ {
		sum += h.BucketOf(ds[(i+sum)&(len(ds)-1)])
	}
	bucketSink = sum
}

var bucketSink int

func BenchmarkMerge512(b *testing.B) {
	a := New(512, 10)
	c := New(512, 10)
	for i := 0; i < 512; i++ {
		c.AddCreated(float64(i * 10))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Merge(c)
	}
}

func BenchmarkComputeThresholds(b *testing.B) {
	g := New(512, 10)
	r := xrand.New(1)
	for i := 0; i < 100000; i++ {
		g.AddCreated(r.Float64() * 5120)
	}
	p := DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeThresholds(g, 48, p, false)
	}
}
