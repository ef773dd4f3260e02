package core

import (
	"runtime"
	"slices"
	"testing"

	"acic/internal/gen"
	"acic/internal/graph"
	"acic/internal/netsim"
)

// TestWarmRunAllocationCeiling is the allocation-ceiling regression test
// for the reduction/drain hot path: once a Scratch is warm, a complete run
// must stay under a fixed allocation budget. The budget covers what a run
// still legitimately allocates (result vectors, runtime/netsim setup,
// goroutine stacks); the arena-backed holds, pooled contributions, batch
// headers, pooled envelopes and recycled per-PE and reduction state must
// not push it back up. A run of this shape allocated ~5000
// objects before the arena rework, ~980 while every batch boxed its
// header, ~720 with pooled headers, and ~200 once envelopes crossed the
// fabric as pooled pointers instead of boxed values.
func TestWarmRunAllocationCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation ceiling is a perf regression gate, not a -short test")
	}
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
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
	// simulated network's queue get varies a little from run to run. It
	// stays well under the ~700 this shape reads when every message that
	// crosses the network boxes its envelope.
	const ceiling = 300
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

// warmAllocs warms a Scratch with three solves of g at the given tram
// capacity and returns the allocations of a further warm solve, the median
// of five (medianAllocs), with the last solve's result. Everything runs at
// GOMAXPROCS 1, as testing.AllocsPerRun measures: on one thread a PE or a
// transport reader can run far ahead of its receivers, so the batches a
// run holds in flight, and with them the pools' high-water marks, are much
// larger than on two. A Scratch warmed on two threads would pay that
// growth inside the measured runs, where it reads as a cost per batch or
// frame.
func warmAllocs(t *testing.T, g *graph.Graph, opts Options, capacity int) (float64, *Result) {
	t.Helper()
	opts.Params = DefaultParams()
	opts.Params.TramCapacity = capacity
	opts.Scratch = &Scratch{}
	var res *Result
	run := func() {
		var err error
		if res, err = Run(g, 0, opts); err != nil {
			t.Fatal(err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < 3; i++ {
		run()
	}
	return medianAllocs(5, run), res
}

// medianAllocs calls f once to warm it, then runs more times, and returns
// the median of the objects each of those calls allocated. A cost per
// batch or per frame shows in every call. A pool's one-time growth does
// not: a run whose pile of batches in flight outgrows every earlier one
// (a transport reader that decodes a socket's whole backlog before the
// PEs it feeds get the one thread), or the first run after a collection
// empties the runtime's envelope sync.Pool, allocates hundreds to
// thousands of objects once, and a mean over the calls (what
// testing.AllocsPerRun reports) spreads them over the rest.
func medianAllocs(runs int, f func()) float64 {
	f()
	counts := make([]uint64, runs)
	var ms runtime.MemStats
	for i := range counts {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		f()
		runtime.ReadMemStats(&ms)
		counts[i] = ms.Mallocs - before
	}
	slices.Sort(counts)
	return float64(counts[runs/2])
}

// TestWarmRunAllocationsDoNotScaleWithBatches ships the same solve in
// batches of 16 and of 1024 updates, with and without simulated latency.
// A warm run draws every batch header from its Scratch and, once a message
// crosses the simulated network, every envelope from the runtime's pool,
// so 64 times as many batches must not cost more allocations: what a run
// allocates is its setup, not its traffic.
func TestWarmRunAllocationsDoNotScaleWithBatches(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts are a perf regression gate, not a -short test")
	}
	g := gen.Uniform(1<<10, 1<<13, gen.Config{Seed: 29})
	for _, tc := range []struct {
		name    string
		latency netsim.LatencyModel
	}{
		{"zero latency", netsim.ZeroLatency()},
		{"netsim", netsim.DefaultLatency()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if raceEnabled && tc.latency != netsim.ZeroLatency() {
				t.Skip("sync.Pool drops Puts at random under the race detector")
			}
			opts := Options{Topo: netsim.Topology{Nodes: 1, ProcsPerNode: 2, PEsPerProc: 2}, Latency: tc.latency}
			small, smallRes := warmAllocs(t, g, opts, 16)
			large, largeRes := warmAllocs(t, g, opts, 1024)
			smallBatches, largeBatches := smallRes.Stats.TramStats.Batches, largeRes.Stats.TramStats.Batches
			t.Logf("capacity 16: %.0f allocs, %d batches; capacity 1024: %.0f allocs, %d batches", small, smallBatches, large, largeBatches)
			if small > 1.1*large {
				t.Errorf("%.0f allocs at capacity 16 vs %.0f at 1024: allocations follow the batch count", small, large)
			}
			// One allocation per batch must be able to break the ratio.
			if float64(smallBatches-largeBatches) < 0.2*large {
				t.Errorf("capacity 16 cut %d batches against %d: too few more to show a per-batch allocation", smallBatches, largeBatches)
			}
		})
	}
}

// TestWarmTCPRunAllocationsDoNotScaleWithFrames is the same gate on the
// loopback TCP mesh, where every message between the two processes is a
// frame: encoded, written, read and decoded. A TCP run pays its mesh
// set-up, so the ratio of two totals hides a per-frame cost; the slope
// does not. Capacity 4 cuts thousands more frames than capacity 1024, and
// each extra frame must cost well under one allocation (a boxed envelope,
// a writer queue regrown after a drain or a per-frame buffer each cost
// one or more).
func TestWarmTCPRunAllocationsDoNotScaleWithFrames(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts are a perf regression gate, not a -short test")
	}
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	g := gen.Uniform(1<<12, 1<<15, gen.Config{Seed: 29})
	opts := Options{Topo: netsim.Topology{Nodes: 1, ProcsPerNode: 2, PEsPerProc: 2}, Transport: TransportTCP}
	small, smallRes := warmAllocs(t, g, opts, 4)
	large, largeRes := warmAllocs(t, g, opts, 1024)
	smallFrames, largeFrames := smallRes.Stats.Audit.BoundaryOut, largeRes.Stats.Audit.BoundaryOut
	t.Logf("capacity 4: %.0f allocs, %d frames; capacity 1024: %.0f allocs, %d frames", small, smallFrames, large, largeFrames)
	if smallFrames < 5*largeFrames {
		t.Fatalf("capacity 4 cut %d frames against %d: too few more to measure a per-frame cost", smallFrames, largeFrames)
	}
	if slope := (small - large) / float64(smallFrames-largeFrames); slope >= 0.1 {
		t.Errorf("%.3f allocations per extra frame (%.0f allocs at capacity 4, %.0f at 1024): allocations follow the frame count", slope, small, large)
	}
}
