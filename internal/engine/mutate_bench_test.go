package engine

import (
	"context"
	"testing"

	"acic/internal/dynamic"
	"acic/internal/gen"
	"acic/internal/xrand"
)

// BenchmarkEngineMutate times one-edge Mutate batches on a 2^14-vertex,
// edge-factor-8 uniform graph with 60 resident vectors, weights drawn in
// the graph's own range. Each op applies the batch, carries the 60
// vectors over (copying and repairing only the ones it alters) and
// publishes a new version.
func BenchmarkEngineMutate(b *testing.B) { benchMutate(b, 14) }

// BenchmarkEngineMutate16 is BenchmarkEngineMutate at 2^16 vertices, with
// the same 60 resident vectors: the pages a batch rebuilds do not grow
// with |V|, the page tables and each copied vector do.
func BenchmarkEngineMutate16(b *testing.B) { benchMutate(b, 16) }

func benchMutate(b *testing.B, scale int) {
	const resident = 60
	n := 1 << scale
	g := gen.Uniform(n, 8*n, gen.Config{Seed: 1})
	dg := dynamic.FromCSR(g)
	batches := dynamic.NewBatchGen(dg, xrand.New(2), g.MaxWeight())
	e, err := NewDynamic(dg, Config{CacheEntries: 64})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for s := 0; s < resident; s++ {
		if _, err := e.Query(ctx, s*(n/resident), QueryOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mr, err := e.Mutate(batches.Next(1))
		if err != nil {
			b.Fatal(err)
		}
		if mr.RepairedVectors != resident {
			b.Fatalf("carried %d vectors, want %d", mr.RepairedVectors, resident)
		}
	}
}
