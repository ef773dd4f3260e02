package core

import (
	"testing"

	"acic/internal/gen"
	"acic/internal/netsim"
)

// TestWarmRunAllocationCeiling is the allocation-ceiling regression test
// for the reduction/drain hot path: once a Scratch is warm, a complete run
// must stay under a fixed allocation budget. The budget covers what a run
// still legitimately allocates (result vectors, runtime/netsim setup,
// goroutine stacks, netsim's queued envelopes); the arena-backed holds,
// pooled contributions, batch headers and recycled per-PE and reduction
// state must not push it back up. A run of this shape allocated ~5000
// objects before the arena rework, ~980 while every batch boxed its
// header, and ~720 with pooled headers.
func TestWarmRunAllocationCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation ceiling is a perf regression gate, not a -short test")
	}
	g := gen.Uniform(1<<9, 1<<12, gen.Config{Seed: 1})
	topo := netsim.SingleNode(4)
	opts := Options{Topo: topo, Latency: netsim.DefaultLatency(), Scratch: &Scratch{}}
	// Warm the scratch: first runs grow freelists and slots to high water.
	for i := 0; i < 3; i++ {
		if _, err := Run(g, 0, opts); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(5, func() {
		if _, err := Run(g, 0, opts); err != nil {
			t.Fatal(err)
		}
	})
	// The margin covers scheduling: how deep the mailboxes and the
	// simulated network's queue get varies a little from run to run.
	const ceiling = 850
	t.Logf("warm run allocates %.0f objects", avg)
	if avg > ceiling {
		t.Errorf("warm run allocates %.0f objects, ceiling %d", avg, ceiling)
	}
}

// TestWarmScratchKeepsItsFootprint is the byte-side companion of the
// ceiling above, which counts objects and so cannot see a 16 KiB chunk
// leak. Under WP aggregation on a two-process machine some PEs unpack more
// batches than they send; their surplus chunks must reach their siblings
// through the arena's spill instead of piling up on a private freelist
// while the siblings allocate. Before the freelists were capped every solve of
// this shape left ~100 chunks (1.7 MB) behind in the Scratch.
func TestWarmScratchKeepsItsFootprint(t *testing.T) {
	g := gen.Uniform(1<<10, 1<<13, gen.Config{Seed: 1})
	sc := &Scratch{}
	opts := Options{
		Topo:    netsim.Topology{Nodes: 1, ProcsPerNode: 2, PEsPerProc: 2},
		Params:  DefaultParams(), // WP aggregation: batches go to a process's demux PE
		Scratch: sc,
	}
	run := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := Run(g, i%g.NumVertices(), opts); err != nil {
				t.Fatal(err)
			}
		}
	}
	run(5)
	warm := sc.pools.ar.Stats().Allocs
	const more = 50
	run(more)
	grown := sc.pools.ar.Stats().Allocs - warm
	t.Logf("%d chunks after warm-up, %d more after %d further runs", warm, grown, more)
	if grown > warm {
		t.Errorf("arena grew by %d chunks over %d warm runs (from %d): the footprint follows the run count", grown, more, warm)
	}
}

// TestWarmRunAllocationsDoNotScaleWithBatches ships the same solve in
// batches of 16 and of 1024 updates. A warm run draws every batch header
// from its Scratch, so 64 times as many batches must not cost more
// allocations: what a run allocates is its setup, not its traffic.
func TestWarmRunAllocationsDoNotScaleWithBatches(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts are a perf regression gate, not a -short test")
	}
	g := gen.Uniform(1<<10, 1<<13, gen.Config{Seed: 29})
	allocs := func(capacity int) (float64, int64) {
		p := DefaultParams()
		p.TramCapacity = capacity
		opts := Options{Topo: netsim.Topology{Nodes: 1, ProcsPerNode: 2, PEsPerProc: 2}, Params: p, Scratch: &Scratch{}}
		var batches int64
		run := func() {
			res, err := Run(g, 0, opts)
			if err != nil {
				t.Fatal(err)
			}
			batches = res.Stats.TramStats.Batches
		}
		for i := 0; i < 3; i++ {
			run()
		}
		return testing.AllocsPerRun(5, run), batches
	}
	small, smallBatches := allocs(16)
	large, largeBatches := allocs(1024)
	t.Logf("capacity 16: %.0f allocs, %d batches; capacity 1024: %.0f allocs, %d batches", small, smallBatches, large, largeBatches)
	// One allocation per batch must be able to break the ratio.
	if float64(smallBatches-largeBatches) < 0.2*large {
		t.Fatalf("capacity 16 cut %d batches against %d: too few more to show a per-batch allocation", smallBatches, largeBatches)
	}
	if small > 1.1*large {
		t.Errorf("%.0f allocs at capacity 16 vs %.0f at 1024: allocations follow the batch count", small, large)
	}
}
