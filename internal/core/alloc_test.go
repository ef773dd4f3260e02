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
// goroutine stacks); the arena-backed holds, pooled contributions and
// recycled per-PE state must not push it back up. Before the arena rework
// a run of this shape allocated ~5000 objects; the ceiling holds the
// improvement.
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
	// The ceiling is deliberately loose (runtime setup dominates and varies
	// a little with scheduling); the pre-arena figure for this graph was
	// ~3x higher, so real regressions clear it by a wide margin.
	const ceiling = 2500
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
