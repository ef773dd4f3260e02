package tram

import (
	"runtime"
	"sync"
	"testing"

	"acic/internal/netsim"
)

// BenchmarkTramInsertFlush measures the steady-state cost of one insert on
// the aggregation hot path, including the amortized cost of cutting a full
// batch every `capacity` inserts and recycling its backing array the way a
// receiver does after unpacking.
func BenchmarkTramInsertFlush(b *testing.B) {
	topo := netsim.SingleNode(8)
	m, err := New[uint64](topo, WP, 512)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if batch := m.Insert(0, i&7, uint64(i)); batch != nil {
			m.Release(batch.Items) // what a receiver does after unpacking
		}
	}
}

// BenchmarkTramInsertParallel is BenchmarkTramInsertFlush with one
// goroutine per source PE of solve-large's 1×2×2 WP machine, each cutting
// into its own set and handing its batches back to its own freelist with
// ReleaseTo, as a receiving PE does. Only as many PEs insert as the host
// runs at once (GOMAXPROCS), lowest index first, so on two cores the two
// siblings of process 0, whose sets were allocated back to back, run
// side by side the whole time instead of whenever the scheduler happens
// to pair them. b.N inserts are split across the goroutines, so ns/op is
// the machine's time per insert: sets whose headers share a cache line
// read several times the one-goroutine insert here, which no
// single-goroutine timing can see.
func BenchmarkTramInsertParallel(b *testing.B) {
	topo := netsim.Topology{Nodes: 1, ProcsPerNode: 2, PEsPerProc: 2}
	const capacity = 512
	m, err := New[uint64](topo, WP, capacity)
	if err != nil {
		b.Fatal(err)
	}
	dests := topo.TotalPEs()
	insert := func(src, n int) {
		for i := 0; i < n; i++ {
			if batch := m.Insert(src, i%dests, uint64(i)); batch != nil {
				m.ReleaseTo(src, batch.Items)
			}
		}
	}
	// Fill every freelist to the run's high-water mark before timing.
	pes := min(dests, runtime.GOMAXPROCS(0))
	for src := 0; src < pes; src++ {
		insert(src, 4*capacity*dests)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for src := 0; src < pes; src++ {
		n := b.N / pes
		if src < b.N%pes {
			n++
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			insert(src, n)
		}()
	}
	wg.Wait()
}
