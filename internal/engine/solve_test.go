package engine

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"acic/internal/dynamic"
	"acic/internal/gen"
	"acic/internal/graph"
	"acic/internal/pq"
	"acic/internal/seq"
	"acic/internal/xrand"
)

// cancelAfter is a context whose Err reads as live for its first polls
// calls and as cancelled from then on.
type cancelAfter struct {
	context.Context
	polls int
}

func (c *cancelAfter) Err() error {
	if c.polls--; c.polls < 0 {
		return context.Canceled
	}
	return nil
}

// TestDijkstraStopsOnCancelAndReusesItsHeap: the kernel reads its context
// before the first settled vertex and then every 1,024, stops with the
// context's error at the first read that reports one, and the bucket queue
// it abandons mid-search serves the next search exactly, on the same
// version and on one whose weights need a larger ring.
func TestDijkstraStopsOnCancelAndReusesItsHeap(t *testing.T) {
	const n = 1 << 12
	g := gen.Uniform(n, 8*n, gen.Config{Seed: 3})
	wide := gen.Uniform(n, 8*n, gen.Config{Seed: 4, MaxWeight: 4096})
	q := pq.NewBucketQueue(n)
	ctx := &cancelAfter{Context: context.Background(), polls: 2}
	if _, err := dijkstra(ctx, newVersion(0, dynamic.FromCSR(g).Current()), 0, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled search returned %v, want context.Canceled", err)
	}
	if ctx.polls != -1 {
		t.Errorf("search made %d context reads, want 3 (at 0, 1,024 and 2,048 settled)", 2-ctx.polls)
	}
	if q.Len() == 0 {
		t.Fatal("the cancelled search left an empty queue; the reuse case is not exercised")
	}
	for _, c := range []struct {
		name string
		g    *graph.Graph
	}{{"same version", g}, {"wider weights", wide}} {
		sol, err := dijkstra(context.Background(), newVersion(0, dynamic.FromCSR(c.g).Current()), 7, q)
		if err != nil {
			t.Fatal(err)
		}
		want := seq.Dijkstra(c.g, 7)
		if !seq.Equal(sol.dist, want.Dist) {
			t.Fatalf("%s: search on the reused queue: mismatch at vertex %d", c.name, seq.FirstMismatch(sol.dist, want.Dist))
		}
		if sol.settled != int64(want.Settled) || sol.relaxations != want.Relaxations {
			t.Errorf("%s: settled %d, relaxations %d; seq.Dijkstra %d and %d", c.name, sol.settled, sol.relaxations, want.Settled, want.Relaxations)
		}
	}
}

// TestMissAllocatesOnlyTheCachedVectors: on a warm slot, a miss allocates
// the same number of objects at 2^10 and at 2^14 vertices, and no more
// bytes than the two vectors the cache keeps plus a bound that does not
// depend on |V|. A queue or label array allocated per miss breaks both.
func TestMissAllocatesOnlyTheCachedVectors(t *testing.T) {
	const fixedBytes = 8 << 10 // the entry, result, channel, list element and the purged map
	ctx := context.Background()
	var objects [2]float64
	for i, n := range []int{1 << 10, 1 << 14} {
		e := mustEngine(t, gen.Uniform(n, 8*n, gen.Config{Seed: 1}), Config{MaxInFlight: 1})
		src := 0
		miss := func() {
			invalidateCache(e)
			if _, err := e.Query(ctx, src%n, QueryOptions{}); err != nil {
				t.Fatal(err)
			}
			src++
		}
		miss() // warm: the slot's heap reaches its size
		objects[i] = testing.AllocsPerRun(20, miss)
		bytes := perRunBytes(20, miss)
		t.Logf("n=%d: %.0f objects and %.0f B per miss", n, objects[i], bytes)
		if limit := float64(12*n + fixedBytes); bytes > limit {
			t.Errorf("n=%d: %.0f B per miss, bound %.0f (the two vectors and %d B)", n, bytes, limit, fixedBytes)
		}
	}
	if objects[0] != objects[1] {
		t.Errorf("%.0f objects per miss at 2^10 but %.0f at 2^14: an allocation grows with |V|", objects[0], objects[1])
	}
}

// perRunBytes is the mean number of bytes f allocates over runs calls.
func perRunBytes(runs int, f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// BenchmarkEngineMiss times one /sssp miss on a 2^14-vertex, edge-factor-8
// uniform graph: invalidateCache between queries, so every op is a
// Dijkstra on one warm slot plus the two vectors it hands the cache.
func BenchmarkEngineMiss(b *testing.B) {
	const n = 1 << 14
	e, err := NewDynamic(dynamic.FromCSR(gen.Uniform(n, 8*n, gen.Config{Seed: 1})), Config{MaxInFlight: 1})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if _, err := e.Query(ctx, 0, QueryOptions{}); err != nil { // warm the slot's heap
		b.Fatal(err)
	}
	var settled int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		invalidateCache(e)
		res, err := e.Query(ctx, i%n, QueryOptions{})
		if err != nil {
			b.Fatal(err)
		}
		settled += res.Settled
	}
	b.ReportMetric(float64(settled)/float64(b.N), "settled/op")
}

// BenchmarkEngineMissShapes times the same miss as BenchmarkEngineMiss on
// each graph shape at 2^14 vertices: random and rmat at edge factor 8, the
// 128 × 128 grid, and a directed path with weights in [1, 256), whose
// frontier is a single vertex, so a queue pays per pop for scanning empty
// buckets that a heap never has.
func BenchmarkEngineMissShapes(b *testing.B) {
	const scale, n = 14, 1 << 14
	path := make([]graph.Edge, n-1)
	r := xrand.New(1)
	for i := range path {
		path[i] = graph.Edge{From: int32(i), To: int32(i + 1), Weight: r.Range(1, 256)}
	}
	for _, kind := range []string{"random", "rmat", "grid", "path"} {
		b.Run(kind, func(b *testing.B) {
			g := graph.MustBuild(n, path)
			if kind != "path" {
				var err error
				if g, err = gen.ByKind(kind, scale, 8, gen.Config{Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
			e, err := NewDynamic(dynamic.FromCSR(g), Config{MaxInFlight: 1})
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			if _, err := e.Query(ctx, 0, QueryOptions{}); err != nil { // warm the slot's queue
				b.Fatal(err)
			}
			var settled int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				invalidateCache(e)
				res, err := e.Query(ctx, i%n, QueryOptions{})
				if err != nil {
					b.Fatal(err)
				}
				settled += res.Settled
			}
			b.ReportMetric(float64(settled)/float64(b.N), "settled/op")
		})
	}
}
