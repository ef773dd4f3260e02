package core

import (
	"math"
	"slices"
	"sync/atomic"
	"testing"

	"acic/internal/gen"
	"acic/internal/graph"
	"acic/internal/histogram"
	"acic/internal/machine"
	"acic/internal/netsim"
	"acic/internal/runtime"
	"acic/internal/tram"
	"acic/internal/xrand"
)

// countingPartition counts the lookups the handlers make through the
// Partition seam.
type countingPartition struct {
	Partition
	owner, localIndex atomic.Int64
}

func (c *countingPartition) Owner(v int32) int {
	c.owner.Add(1)
	return c.Partition.Owner(v)
}

func (c *countingPartition) LocalIndex(v int32) int {
	c.localIndex.Add(1)
	return c.Partition.LocalIndex(v)
}

// TestOwnerLookupsPerUpdate pins the update path's lookup budget: one
// Owner per relaxation candidate (createUpdate's, skipped when the sender
// already dominates it), then one per hop of a created update — the
// receiver's receiveBatch and, under process-granularity aggregation only,
// the sibling a batch is demuxed to — and no LocalIndex at all, because a
// handler only ever indexes vertices it owns (LocalOn). An update drained
// from tram_hold looks its owner up again; the candidates the filter drops
// before any lookup pay for that. Before the budget the same run made
// about five Owner calls per update, two of them inside LocalIndex.
func TestOwnerLookupsPerUpdate(t *testing.T) {
	g := gen.Uniform(1<<12, 1<<15, gen.Config{Seed: 3})
	for _, tc := range []struct {
		mode tram.Mode
		hops int64
	}{{tram.WP, 2}, {tram.WW, 1}} {
		p := DefaultParams()
		p.TramMode = tc.mode
		s, err := newSetup(g, 0, Options{
			Topo:   netsim.Topology{Nodes: 1, ProcsPerNode: 2, PEsPerProc: 2},
			Params: p,
		}, false)
		if err != nil {
			t.Fatal(err)
		}
		part := &countingPartition{Partition: s.sh.part}
		s.sh.part = part
		run, err := s.run()
		s.sc.release()
		if err != nil {
			t.Fatal(err)
		}
		var created, processed, relaxations int64
		for _, st := range run.Handlers {
			created += st.hist.Created
			processed += st.hist.Processed
			relaxations += st.relaxations
		}
		if created != processed || created < int64(g.NumVertices()) {
			t.Fatalf("%v: created %d, processed %d on %d vertices", tc.mode, created, processed, g.NumVertices())
		}
		owner := part.owner.Load()
		budget := relaxations + tc.hops*created
		t.Logf("%v: %d candidates, %d updates, %d Owner calls (budget %d)", tc.mode, relaxations, created, owner, budget)
		if owner > budget {
			t.Errorf("%v: %d Owner calls for %d candidates and %d updates, budget %d", tc.mode, owner, relaxations, created, budget)
		}
		if n := part.localIndex.Load(); n != 0 {
			t.Errorf("%v: %d LocalIndex calls on the update path, want 0 (LocalOn)", tc.mode, n)
		}
	}
}

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
		pe.Send(batch.DestPE, batchMsg{items: batch.Items}, len(batch.Items))
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
// is the full lifecycle of updates that all get through. Allocations are
// the one batchMsg boxing per 1024 shipped updates: 0 allocs/op.
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
