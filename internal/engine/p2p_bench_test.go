package engine

import (
	"context"
	"testing"

	"acic/internal/dynamic"
	"acic/internal/gen"
	"acic/internal/xrand"
)

// pathPairs draws count random (source, target) pairs over n vertices.
func pathPairs(n, count int, seed uint64) [][2]int {
	r := xrand.New(seed)
	pairs := make([][2]int, count)
	for i := range pairs {
		pairs[i] = [2]int{r.Intn(n), r.Intn(n)}
	}
	return pairs
}

// BenchmarkEnginePath times Engine.Path on random pairs of a 2^14-vertex,
// edge-factor-8 uniform graph with nothing cached, so every op is one
// bidirectional search on a warm slot. settled/op is the vertices it
// expands.
func BenchmarkEnginePath(b *testing.B) {
	const n = 1 << 14
	e, err := NewDynamic(dynamic.FromCSR(gen.Uniform(n, 8*n, gen.Config{Seed: 1})), Config{})
	if err != nil {
		b.Fatal(err)
	}
	pairs := pathPairs(n, 1024, 2)
	ctx := context.Background()
	// Slots are handed out in turn: warm every slot's labels first.
	for _, p := range pairs[:8] {
		if _, err := e.Path(ctx, p[0], p[1]); err != nil {
			b.Fatal(err)
		}
	}
	var settled int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		pr, err := e.Path(ctx, p[0], p[1])
		if err != nil {
			b.Fatal(err)
		}
		settled += pr.Settled
	}
	b.ReportMetric(float64(settled)/float64(b.N), "settled/op")
}

// maxPathBytesPerQuery bounds what a warm path search allocates: the
// PathResult and its path, never labels or heaps. It is the same at every
// |V|; an allocation proportional to |V| (2^14 labels are 256 KiB) breaks
// it at the larger size.
const maxPathBytesPerQuery = 1024

// TestPathSearchAllocatesNothingPerVertex: on a warm slot, the bytes one
// Engine.Path search allocates stay under one bound at 2^10 and at 2^14
// vertices.
func TestPathSearchAllocatesNothingPerVertex(t *testing.T) {
	for _, n := range []int{1 << 10, 1 << 14} {
		e := mustEngine(t, gen.Uniform(n, 8*n, gen.Config{Seed: 1}), Config{MaxInFlight: 1})
		pairs := pathPairs(n, 200, 3)
		ctx := context.Background()
		query := func() {
			for _, p := range pairs {
				if _, err := e.Path(ctx, p[0], p[1]); err != nil {
					t.Fatal(err)
				}
			}
		}
		query() // warm: the slot's labels and heaps reach their size
		perQuery := perRunBytes(1, query) / float64(len(pairs))
		t.Logf("n=%d: %.0f B per path search", n, perQuery)
		if perQuery > maxPathBytesPerQuery {
			t.Errorf("n=%d: %.0f B per path search, bound %d", n, perQuery, maxPathBytesPerQuery)
		}
	}
}
