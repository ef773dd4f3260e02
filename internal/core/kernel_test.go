package core

import (
	"math"
	"slices"
	"testing"

	"acic/internal/gen"
	"acic/internal/graph"
	"acic/internal/histogram"
	"acic/internal/machine"
	"acic/internal/netsim"
	"acic/internal/runtime"
	"acic/internal/xrand"
)

// kernelDriver feeds one PE a fixed stream of updates through the real
// handler: each burst is created (histogram, threshold, tramlib), comes
// back to the same PE as the batches tramlib cut (receiveBatch, arrival
// rules, pq push) and is popped by the embedded Idle before the next burst.
type kernelDriver struct {
	*peState
	b      *testing.B
	stream []Update
	next   int // position in stream
	left   int // updates still to create
}

func (k *kernelDriver) Idle(pe *runtime.PE) bool {
	if k.peState.Idle(pe) {
		return true // still popping what the last burst queued
	}
	if k.left == 0 {
		pe.Exit()
		return false
	}
	if k.next == 0 {
		if k.left == k.b.N {
			k.b.ResetTimer() // machine set-up is behind us
		}
		// A new pass over the stream meets fresh vertices, so the share of
		// accepted updates stays what the first pass had.
		for i := range k.dist {
			k.dist[i] = math.Inf(1)
			k.sent[i] = math.Inf(1)
		}
	}
	burst := min(k.left, k.params.TramCapacity, len(k.stream)-k.next)
	for _, u := range k.stream[k.next : k.next+burst] {
		k.createUpdate(pe, u)
	}
	k.left -= burst
	k.next = (k.next + burst) % len(k.stream)
	for _, batch := range k.shared.tm.FlushSet(k.me) {
		k.ship(pe, batch)
	}
	return true
}

// BenchmarkUpdateKernel is the unit cost the update path is budgeted in:
// ns per relaxation candidate for create → tram → receiveBatch → pop on one
// PE, with no graph behind it (vertices have no out-edges) and no control
// cycle. Each vertex sees 16 random distances per pass, so about a fifth of
// the candidates improve their vertex and the rest cannot — the mix real
// runs have (core.useful_update_ratio 0.16–0.27 before the sender's
// dominance filter). The filter now drops those at createUpdate, so this
// row mostly measures suppression (suppressed/op); BenchmarkUpdateKernelShipped
// is the full lifecycle of updates that all get through. Batch headers
// come from the run's pools: 0 allocs/op.
func BenchmarkUpdateKernel(b *testing.B) {
	runUpdateKernel(b, kernelStream(24, false))
}

// BenchmarkUpdateKernelShipped runs the same vertices and distances with
// each vertex's distances reordered to fall within a pass, so no candidate
// is dominated: every one is created, shipped, accepted and pushed, and
// all but each vertex's last are superseded when popped.
func BenchmarkUpdateKernelShipped(b *testing.B) {
	runUpdateKernel(b, kernelStream(24, true))
}

const kernelVertices = 1 << 12

// kernelStream draws 16 updates per vertex with uniform vertices and
// distances over the whole histogram; falling reorders each vertex's
// distances to be strictly decreasing in stream order.
func kernelStream(seed uint64, falling bool) []Update {
	r := xrand.New(seed)
	top := float64(histogram.DefaultBuckets) * histogram.PaperWidth(kernelVertices)
	stream := make([]Update, 16*kernelVertices)
	for i := range stream {
		stream[i] = Update{Vertex: int32(r.Intn(kernelVertices)), Pred: -1, Dist: r.Range(0, top)}
	}
	if falling {
		byVertex := make([][]int, kernelVertices)
		for i, u := range stream {
			byVertex[u.Vertex] = append(byVertex[u.Vertex], i)
		}
		for _, idx := range byVertex {
			ds := make([]float64, len(idx))
			for j, i := range idx {
				ds[j] = stream[i].Dist
			}
			slices.Sort(ds)
			for j, i := range idx {
				stream[i].Dist = ds[len(ds)-1-j]
			}
		}
	}
	return stream
}

func runUpdateKernel(b *testing.B, stream []Update) {
	g := graph.MustBuild(kernelVertices, nil)
	s, err := newSetup(g, 0, Options{Topo: netsim.SingleNode(1), Params: DefaultParams(), Scratch: &Scratch{}}, false)
	if err != nil {
		b.Fatal(err)
	}
	defer s.sc.release()
	b.ReportAllocs()
	var k *kernelDriver
	_, err = machine.Run(s.cfg,
		func(pe *runtime.PE) runtime.Handler {
			k = &kernelDriver{peState: newPEState(s.sh, pe, s.params, s.sc.slot(0)), b: b, stream: stream, left: b.N}
			return k
		},
		func(*runtime.Runtime) {})
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	if c, p := k.hist.Created, k.hist.Processed; c+k.suppressed != int64(b.N) || p != c {
		b.Fatalf("created %d + suppressed %d, processed %d, want %d candidates, created == processed", c, k.suppressed, p, b.N)
	}
	b.ReportMetric(float64(k.rejected)/float64(b.N), "rejected/op")
	b.ReportMetric(float64(k.suppressed)/float64(b.N), "suppressed/op")
}

// BenchmarkACICSolveLarge is one whole solve at the benchmark's solve-large
// shape: a uniform 2^15-vertex graph at the paper's edge factor 16 (seed
// 1), 1 node × 2 processes × 2 PEs, DefaultParams, zero latency, and one
// Scratch warmed by 3 solves before the timer starts. Each iteration
// solves from the next of 16 seeded sources. Unlike BenchmarkUpdateKernel
// it has a graph behind it, larger than the cache, so it sees what a
// relaxation pays for its random loads of sent and dist.
func BenchmarkACICSolveLarge(b *testing.B) {
	const n = 1 << 15
	g := gen.Uniform(n, 16*n, gen.Config{Seed: 1})
	r := xrand.New(1)
	sources := make([]int, 16)
	for i := range sources {
		sources[i] = r.Intn(n)
	}
	opts := Options{
		Topo:    netsim.Topology{Nodes: 1, ProcsPerNode: 2, PEsPerProc: 2},
		Params:  DefaultParams(),
		Scratch: &Scratch{},
	}
	solve := func(i int) *Result {
		res, err := Run(g, sources[i%len(sources)], opts)
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	for i := range 3 {
		solve(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var relaxations int64
	for i := 0; i < b.N; i++ {
		relaxations += solve(i).Stats.Relaxations
	}
	b.ReportMetric(float64(relaxations)/float64(b.N), "relaxations/op")
}
