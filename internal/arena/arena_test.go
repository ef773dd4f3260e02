package arena

import (
	"sync"
	"testing"
)

func TestGetPutRecycles(t *testing.T) {
	a := New[int](2, 4)
	c := a.Get(0)
	if len(c) != 0 || cap(c) != 4 {
		t.Fatalf("Get: len=%d cap=%d, want 0/4", len(c), cap(c))
	}
	c = append(c, 1, 2, 3)
	a.Put(0, c)
	c2 := a.Get(0)
	if cap(c2) != 4 || len(c2) != 0 {
		t.Fatalf("recycled chunk: len=%d cap=%d", len(c2), cap(c2))
	}
	// Same backing array came back.
	c2 = append(c2, 9)
	if &c[:1][0] != &c2[0] {
		t.Error("Get after Put did not recycle the backing array")
	}
	st := a.Stats()
	if st.Gets != 2 || st.Puts != 1 || st.Allocs != 1 {
		t.Errorf("stats = %+v, want gets=2 puts=1 allocs=1", st)
	}
}

func TestUndersizedDropped(t *testing.T) {
	a := New[int](1, 8)
	a.Put(0, make([]int, 0, 4))    // undersized: dropped, counted
	a.PutShared(make([]int, 0, 2)) // undersized: dropped, counted
	if c := a.Get(0); cap(c) != 8 {
		t.Errorf("Get after undersized puts returned cap %d, want fresh 8", cap(c))
	}
	st := a.Stats()
	if st.Puts != 2 {
		t.Errorf("puts = %d, want 2 (undersized still counted)", st.Puts)
	}
	if st.Allocs != 1 {
		t.Errorf("allocs = %d, want 1", st.Allocs)
	}
}

func TestSharedSpillRefillsOwner(t *testing.T) {
	a := New[int](2, 4)
	// Owner 0 issues chunks; a "receiver" returns them via the shared path.
	var inflight [][]int
	for i := 0; i < 20; i++ {
		inflight = append(inflight, a.Get(0))
	}
	for _, c := range inflight {
		a.PutShared(c)
	}
	before := a.Stats().Allocs
	// Owner 1 (freelist empty) should refill from the spill, not allocate.
	c := a.Get(1)
	if a.Stats().Allocs != before {
		t.Error("Get with non-empty spill allocated a fresh chunk")
	}
	a.Put(1, c)
}

// TestLopsidedTrafficKeepsFootprint pins the private-list cap: one owner
// only issues chunks and the other only takes them back — a PE that sends
// against one that receives — for many rounds. The receiver's surplus must
// reach the sender through the spill, so the number of chunks ever
// allocated follows what is in flight at once, not the number of rounds.
func TestLopsidedTrafficKeepsFootprint(t *testing.T) {
	a := New[int](2, 4)
	const inFlight, rounds = 8, 1000
	for r := 0; r < rounds; r++ {
		var batch [][]int
		for i := 0; i < inFlight; i++ {
			batch = append(batch, a.Get(0))
		}
		for _, c := range batch {
			a.Put(1, c)
		}
	}
	st := a.Stats()
	if st.Gets != inFlight*rounds || st.Puts != st.Gets {
		t.Errorf("ledger = %+v, want gets=puts=%d (shedding must not count)", st, inFlight*rounds)
	}
	if limit := int64(inFlight + privateCap + 1); st.Allocs > limit {
		t.Errorf("allocated %d chunks over %d rounds of %d in flight, want <= %d", st.Allocs, rounds, inFlight, limit)
	}
}

func TestPutSharedConcurrent(t *testing.T) {
	a := New[int](4, 16)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(owner int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				c := a.Get(owner)
				c = append(c, i)
				a.PutShared(c)
			}
		}(g)
	}
	wg.Wait()
	st := a.Stats()
	if st.Gets != 2000 || st.Puts != 2000 {
		t.Errorf("stats = %+v, want gets=puts=2000", st)
	}
}

func TestListAppendDrain(t *testing.T) {
	a := New[int](1, 3)
	var l List[int]
	for i := 0; i < 10; i++ {
		l.Append(a, 0, i)
	}
	if l.Len() != 10 {
		t.Fatalf("Len = %d, want 10", l.Len())
	}
	var got []int
	l.Drain(a, 0, func(v int) { got = append(got, v) })
	if l.Len() != 0 {
		t.Errorf("Len after Drain = %d, want 0", l.Len())
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("drain order: got[%d] = %d", i, v)
		}
	}
	if len(got) != 10 {
		t.Fatalf("drained %d items, want 10", len(got))
	}
	st := a.Stats()
	if st.Gets != st.Puts {
		t.Errorf("list cycle unbalanced: %+v", st)
	}
}

func TestListTakeChunks(t *testing.T) {
	a := New[int](1, 4)
	var l List[int]
	for i := 0; i < 9; i++ {
		l.Append(a, 0, i)
	}
	var chunks [][]int
	l.TakeChunks(func(c []int) { chunks = append(chunks, c) })
	if l.Len() != 0 {
		t.Errorf("Len after TakeChunks = %d, want 0", l.Len())
	}
	if len(chunks) != 3 {
		t.Fatalf("got %d chunks, want 3", len(chunks))
	}
	total := 0
	for _, c := range chunks {
		total += len(c)
	}
	if total != 9 {
		t.Errorf("chunks carry %d items, want 9", total)
	}
	// Taken chunks were not put back: the ledger shows them outstanding
	// until the receiver returns them.
	st := a.Stats()
	if st.Gets-st.Puts != 3 {
		t.Errorf("outstanding chunks = %d, want 3 (%+v)", st.Gets-st.Puts, st)
	}
	for _, c := range chunks {
		a.PutShared(c)
	}
	if st := a.Stats(); st.Gets != st.Puts {
		t.Errorf("after returning taken chunks: %+v", st)
	}
}

// TestSteadyStateZeroAlloc is the allocation-ceiling regression test for
// the arena itself: once warm, a park/drain cycle must not allocate.
func TestSteadyStateZeroAlloc(t *testing.T) {
	a := New[int](1, 64)
	var l List[int]
	// Warm: grow the freelist and the list's outer slice to high water.
	for i := 0; i < 1000; i++ {
		l.Append(a, 0, i)
	}
	l.Drain(a, 0, func(int) {})
	avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 1000; i++ {
			l.Append(a, 0, i)
		}
		l.Drain(a, 0, func(int) {})
	})
	if avg > 0 {
		t.Errorf("warm park/drain cycle allocates %.2f objects, want 0", avg)
	}
}

func BenchmarkListParkDrain(b *testing.B) {
	a := New[int](1, 1024)
	var l List[int]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += 1024 {
		for j := 0; j < 1024; j++ {
			l.Append(a, 0, j)
		}
		l.Drain(a, 0, func(int) {})
	}
}
