package tram

import (
	"sync"
	"testing"
	"testing/quick"

	"acic/internal/netsim"
	"acic/internal/xrand"
)

type item struct {
	dst int
	val int
}

func topo2x2x3() netsim.Topology {
	return netsim.Topology{Nodes: 2, ProcsPerNode: 2, PEsPerProc: 3}
}

func TestModeString(t *testing.T) {
	cases := map[Mode]string{WW: "WW", WP: "WP", PW: "PW", PP: "PP"}
	for m, want := range cases {
		if m.String() != want {
			t.Errorf("%d.String() = %q, want %q", m, m.String(), want)
		}
	}
	if Mode(99).String() == "" {
		t.Error("unknown mode should still render")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New[int](netsim.Topology{}, WP, 10); err == nil {
		t.Error("invalid topology accepted")
	}
	if _, err := New[int](topo2x2x3(), WP, 0); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := New[int](topo2x2x3(), Mode(9), 10); err == nil {
		t.Error("unknown mode accepted")
	}
}

func TestBufferSetCounts(t *testing.T) {
	topo := topo2x2x3() // 12 PEs, 4 processes
	cases := []struct {
		mode Mode
		want int // sets × destinations
	}{
		{WW, 12 * 12},
		{WP, 12 * 4},
		{PW, 4 * 12},
		{PP, 4 * 4},
	}
	for _, c := range cases {
		m, err := New[int](topo, c.mode, 8)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.NumBuffers(); got != c.want {
			t.Errorf("%v: NumBuffers = %d, want %d", c.mode, got, c.want)
		}
	}
}

func TestAutoFlushAtCapacity(t *testing.T) {
	for _, mode := range []Mode{WW, WP, PW, PP} {
		m, err := New[item](topo2x2x3(), mode, 4)
		if err != nil {
			t.Fatal(err)
		}
		var batch *Batch[item]
		for i := 0; i < 4; i++ {
			b := m.Insert(0, 7, item{7, i})
			if i < 3 && b != nil {
				t.Fatalf("%v: flushed early at insert %d", mode, i)
			}
			if i == 3 {
				batch = b
			}
		}
		if batch == nil {
			t.Fatalf("%v: no auto flush at capacity", mode)
		}
		if len(batch.Items) != 4 {
			t.Fatalf("%v: batch has %d items, want 4", mode, len(batch.Items))
		}
		if batch.SrcPE != 0 {
			t.Fatalf("%v: SrcPE = %d", mode, batch.SrcPE)
		}
		// After flush the buffer is empty again.
		if m.PendingInSet(0) != 0 {
			t.Fatalf("%v: pending after flush = %d", mode, m.PendingInSet(0))
		}
	}
}

func TestDeliveryTargetByMode(t *testing.T) {
	topo := topo2x2x3()
	// Destination PE 7 lives in process 2 (PEs 6,7,8).
	for _, c := range []struct {
		mode       Mode
		exactPE    bool
		procOfDest int
	}{
		{WW, true, 2}, {PW, true, 2}, {WP, false, 2}, {PP, false, 2},
	} {
		m, err := New[item](topo, c.mode, 2)
		if err != nil {
			t.Fatal(err)
		}
		m.Insert(0, 7, item{})
		b := m.Insert(0, 7, item{})
		if b == nil {
			t.Fatalf("%v: expected flush", c.mode)
		}
		if c.exactPE {
			if b.DestPE != 7 {
				t.Errorf("%v: DestPE = %d, want 7", c.mode, b.DestPE)
			}
		} else if topo.ProcessOf(b.DestPE) != c.procOfDest {
			t.Errorf("%v: DestPE %d not in process %d", c.mode, b.DestPE, c.procOfDest)
		}
	}
}

func TestProcessGranularityMixesDestinations(t *testing.T) {
	// Under WP, items for PEs 6 and 8 (same process) share one buffer.
	m, err := New[item](topo2x2x3(), WP, 3)
	if err != nil {
		t.Fatal(err)
	}
	m.Insert(0, 6, item{dst: 6})
	m.Insert(0, 8, item{dst: 8})
	b := m.Insert(0, 7, item{dst: 7})
	if b == nil {
		t.Fatal("expected flush after 3 inserts to one process")
	}
	if len(b.Items) != 3 {
		t.Fatalf("batch size = %d, want 3", len(b.Items))
	}
}

func TestWorkerGranularitySeparatesDestinations(t *testing.T) {
	// Under WW, items for PEs 6 and 8 use distinct buffers.
	m, err := New[item](topo2x2x3(), WW, 2)
	if err != nil {
		t.Fatal(err)
	}
	if b := m.Insert(0, 6, item{}); b != nil {
		t.Fatal("unexpected flush")
	}
	if b := m.Insert(0, 8, item{}); b != nil {
		t.Fatal("unexpected flush — destinations share a buffer under WW?")
	}
	if m.PendingInSet(0) != 2 {
		t.Fatalf("pending = %d", m.PendingInSet(0))
	}
}

func TestManualFlush(t *testing.T) {
	m, err := New[item](topo2x2x3(), WP, 100)
	if err != nil {
		t.Fatal(err)
	}
	m.Insert(2, 0, item{val: 1})
	m.Insert(2, 6, item{val: 2})
	m.Insert(2, 9, item{val: 3})
	batches := m.FlushSet(2)
	total := 0
	for _, b := range batches {
		total += len(b.Items)
		if b.SrcPE != 2 {
			t.Errorf("batch SrcPE = %d, want 2", b.SrcPE)
		}
	}
	if total != 3 {
		t.Errorf("manual flush carried %d items, want 3", total)
	}
	if m.PendingInSet(2) != 0 {
		t.Error("items remain after manual flush")
	}
	if got := m.FlushSet(2); len(got) != 0 {
		t.Error("second flush should be empty")
	}
}

func TestSharedSetVisibleAcrossProcessPEs(t *testing.T) {
	// Under PP, PEs 0,1,2 share process 0's set: PE 1's insert is
	// flushable by PE 2.
	m, err := New[item](topo2x2x3(), PP, 100)
	if err != nil {
		t.Fatal(err)
	}
	m.Insert(1, 11, item{})
	if m.PendingInSet(2) != 1 {
		t.Fatalf("PE 2 sees %d pending, want 1 (shared set)", m.PendingInSet(2))
	}
	batches := m.FlushSet(2)
	if len(batches) != 1 || len(batches[0].Items) != 1 {
		t.Fatal("PE 2 could not flush PE 1's item")
	}
}

func TestWorkerSetsAreIndependent(t *testing.T) {
	m, err := New[item](topo2x2x3(), WW, 100)
	if err != nil {
		t.Fatal(err)
	}
	m.Insert(1, 11, item{})
	if m.PendingInSet(2) != 0 {
		t.Error("worker-owned sets should not be shared")
	}
	if m.PendingInSet(1) != 1 {
		t.Error("owner does not see its own item")
	}
}

func TestRoundRobinDeliverySpreadsPEs(t *testing.T) {
	// Process-granularity delivery rotates among the destination process's
	// PEs (stand-in for the comm thread demux).
	m, err := New[item](topo2x2x3(), WP, 1)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for i := 0; i < 9; i++ {
		b := m.Insert(0, 6, item{})
		if b == nil {
			t.Fatal("capacity-1 insert must flush")
		}
		if p := topo2x2x3().ProcessOf(b.DestPE); p != 2 {
			t.Fatalf("delivered to process %d, want 2", p)
		}
		seen[b.DestPE] = true
	}
	if len(seen) != 3 {
		t.Errorf("round robin used %d PEs, want 3", len(seen))
	}
}

func TestStatsAccounting(t *testing.T) {
	m, err := New[item](topo2x2x3(), WP, 2)
	if err != nil {
		t.Fatal(err)
	}
	m.Insert(0, 6, item{})
	m.Insert(0, 6, item{}) // auto flush (2 items)
	m.Insert(0, 9, item{})
	m.FlushSet(0) // manual flush (1 item)
	s := m.Stats()
	if s.Inserts != 3 {
		t.Errorf("Inserts = %d", s.Inserts)
	}
	if s.AutoFlushes != 1 {
		t.Errorf("AutoFlushes = %d", s.AutoFlushes)
	}
	if s.ManualFlushes != 1 {
		t.Errorf("ManualFlushes = %d", s.ManualFlushes)
	}
	if s.Batches != 2 || s.Items != 3 {
		t.Errorf("Batches = %d, Items = %d", s.Batches, s.Items)
	}
}

func TestConcurrentInsertsSharedSet(t *testing.T) {
	// PP mode: all 3 PEs of process 0 hammer the shared set concurrently;
	// every item must come out exactly once. (The paper notes shared
	// buffers require atomic operations; here a mutex guards the set.)
	m, err := New[item](topo2x2x3(), PP, 64)
	if err != nil {
		t.Fatal(err)
	}
	const perPE = 5000
	var mu sync.Mutex
	got := 0
	var wg sync.WaitGroup
	for pe := 0; pe < 3; pe++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			for i := 0; i < perPE; i++ {
				if b := m.Insert(src, (i*7)%12, item{val: i}); b != nil {
					mu.Lock()
					got += len(b.Items)
					mu.Unlock()
				}
			}
		}(pe)
	}
	wg.Wait()
	for _, b := range m.FlushSet(0) {
		got += len(b.Items)
	}
	if got != 3*perPE {
		t.Errorf("items out = %d, want %d", got, 3*perPE)
	}
}

// Property: across any insert sequence, (items in batches) + (pending)
// equals inserts, for every mode.
func TestQuickConservation(t *testing.T) {
	topo := topo2x2x3()
	f := func(seedOps []uint16, modeRaw, capRaw uint8) bool {
		mode := Mode(modeRaw % 4)
		capacity := int(capRaw%16) + 1
		m, err := New[int](topo, mode, capacity)
		if err != nil {
			return false
		}
		out := 0
		for i, op := range seedOps {
			src := int(op) % 12
			dst := int(op>>4) % 12
			if b := m.Insert(src, dst, i); b != nil {
				out += len(b.Items)
			}
		}
		pending := 0
		for set := 0; set < 12; set++ {
			for _, b := range m.FlushSet(set) {
				out += len(b.Items)
			}
			pending += m.PendingInSet(set)
		}
		return out == len(seedOps) && pending == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkInsertWP(b *testing.B) {
	m, _ := New[item](netsim.PaperNode(2), WP, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Insert(i%96, (i*31)%96, item{val: i})
	}
}

func BenchmarkInsertPPShared(b *testing.B) {
	m, _ := New[item](netsim.PaperNode(2), PP, 1024)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			m.Insert(i%96, (i*31)%96, item{val: i})
			i++
		}
	})
}

func TestReleaseRecyclesBatchBuffers(t *testing.T) {
	m, err := New[int](netsim.SingleNode(4), WP, 8)
	if err != nil {
		t.Fatal(err)
	}
	fill := func() []int {
		var items []int
		for i := 0; i < 8; i++ {
			b := m.Insert(0, 1, i)
			if i < 7 && b != nil {
				t.Fatalf("batch cut early at insert %d", i)
			}
			if i == 7 {
				if b == nil {
					t.Fatal("no batch at capacity")
				}
				items = b.Items
			}
		}
		return items
	}
	first := fill()
	if len(first) != 8 {
		t.Fatalf("batch len = %d, want 8", len(first))
	}
	m.Release(first)
	second := fill()
	// Identity reuse is an implementation detail, not a guarantee — but
	// contents must be correct either way, and a recycled buffer must
	// start empty (no stale items leaking through).
	for i, v := range second {
		if v != i {
			t.Fatalf("second batch[%d] = %d, want %d (stale pooled data?)", i, v, i)
		}
	}
}

func TestReleaseIgnoresUndersizedSlices(t *testing.T) {
	m, err := New[int](netsim.SingleNode(4), WP, 8)
	if err != nil {
		t.Fatal(err)
	}
	// A demux-forward group is smaller than the batch capacity; Release
	// must not poison the pool with it.
	m.Release(make([]int, 0, 3))
	m.ReleaseTo(0, make([]int, 0, 5))
	if buf := m.pool.Get(0); cap(buf) != 8 {
		t.Fatalf("pool issued buffer cap=%d, want exactly 8 (undersized slice pooled?)", cap(buf))
	}
}

// TestBorrowReleaseLedger pins that Borrow participates in the pool
// ledger like a regular buffer: every borrow matched by a release keeps
// PoolGets == PoolPuts, the quiescence invariant.
func TestBorrowReleaseLedger(t *testing.T) {
	m, err := New[int](netsim.SingleNode(4), WP, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		buf := m.Borrow(1)
		if len(buf) != 0 || cap(buf) != 8 {
			t.Fatalf("Borrow: len=%d cap=%d, want 0/8", len(buf), cap(buf))
		}
		buf = append(buf, i)
		if i%2 == 0 {
			m.ReleaseTo(2, buf)
		} else {
			m.Release(buf)
		}
	}
	st := m.Stats()
	if st.PoolGets != st.PoolPuts || st.PoolGets != 10 {
		t.Errorf("ledger gets=%d puts=%d, want 10=10", st.PoolGets, st.PoolPuts)
	}
}

// TestReleaseToSteadyStateZeroAlloc is the allocation-ceiling regression
// for the receiver-side release path: the old sync.Pool implementation
// allocated a *[]T box on every Release; the arena path must not.
func TestReleaseToSteadyStateZeroAlloc(t *testing.T) {
	m, err := New[int](netsim.SingleNode(2), WW, 16)
	if err != nil {
		t.Fatal(err)
	}
	buf := m.Borrow(0)
	m.ReleaseTo(0, buf)
	avg := testing.AllocsPerRun(1000, func() {
		b := m.Borrow(0)
		m.ReleaseTo(0, b)
	})
	if avg > 0 {
		t.Errorf("Borrow+ReleaseTo allocates %.2f objects per cycle, want 0", avg)
	}
}

// TestInsertsCountItemsCutPlusPending pins the batch-granular counter: the
// registry counter advances only when a batch is cut, and Stats adds what
// is still buffered, so Inserts equals the number of Insert calls at every
// point a caller can read it — before, between and after flushes.
func TestInsertsCountItemsCutPlusPending(t *testing.T) {
	topo := topo2x2x3()
	for _, mode := range []Mode{WW, WP, PW, PP} {
		m, err := New[item](topo, mode, 4)
		if err != nil {
			t.Fatal(err)
		}
		calls := int64(0)
		check := func(when string) {
			t.Helper()
			pending := int64(0)
			counted := map[int]bool{}
			for pe := 0; pe < topo.TotalPEs(); pe++ {
				if set := int(m.setOf[pe]); !counted[set] {
					counted[set] = true
					pending += int64(m.PendingInSet(pe))
				}
			}
			s := m.Stats()
			if s.Inserts != s.Items+pending || s.Inserts != calls {
				t.Errorf("%v %s: Inserts = %d, Items %d + pending %d, Insert calls %d", mode, when, s.Inserts, s.Items, pending, calls)
			}
		}
		check("before any insert")
		r := xrand.New(uint64(mode) + 1)
		for round := 0; round < 5; round++ {
			for i := 0; i < 37; i++ {
				m.Insert(r.Intn(topo.TotalPEs()), r.Intn(topo.TotalPEs()), item{})
				calls++
			}
			check("between flushes")
			m.FlushSet(r.Intn(topo.TotalPEs()))
			check("after one set's flush")
		}
		for pe := 0; pe < topo.TotalPEs(); pe++ {
			m.FlushSet(pe)
		}
		check("after flushing every set")
		if s := m.Stats(); s.Inserts != s.Items {
			t.Errorf("%v: drained manager reads Inserts %d, Items %d", mode, s.Inserts, s.Items)
		}
	}
}

// TestFlushHeadersAreReused pins what made flushing allocation-free: Insert
// hands back the source PE's own header slot and FlushSet its own list, and
// neither is shared between source PEs even when their buffer set is.
func TestFlushHeadersAreReused(t *testing.T) {
	m, err := New[int](netsim.SingleNode(2), PP, 2)
	if err != nil {
		t.Fatal(err)
	}
	cutFrom := func(src int) *Batch[int] {
		m.Insert(src, 0, src)
		b := m.Insert(src, 0, src)
		if b == nil || len(b.Items) != 2 || b.SrcPE != src {
			t.Fatalf("second insert from PE %d cut %+v", src, b)
		}
		return b
	}
	first := cutFrom(0)
	items := first.Items
	other := cutFrom(1) // same process-owned set, another PE's header
	if first == other || &first.Items[0] != &items[0] {
		t.Fatal("a cut by PE 1 overwrote the header PE 0 was handed")
	}
	if again := cutFrom(0); again != first {
		t.Error("PE 0's second cut came back in a different header")
	}
	m.Release(items)
	m.Release(other.Items)
	m.Release(first.Items)

	// Steady state: fill, cut, flush the remainder, release — no objects.
	avg := testing.AllocsPerRun(200, func() {
		for i := 0; i < 3; i++ {
			if b := m.Insert(0, 0, i); b != nil {
				m.ReleaseTo(0, b.Items)
			}
		}
		for _, b := range m.FlushSet(0) {
			m.ReleaseTo(0, b.Items)
		}
	})
	if avg > 0 {
		t.Errorf("insert/cut/flush cycle allocates %.2f objects, want 0", avg)
	}
}
