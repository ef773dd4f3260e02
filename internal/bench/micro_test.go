// Micro and end-to-end benchmarks for the messaging hot path. The three
// component microbenchmarks (BenchmarkMailbox, BenchmarkNetsimSend,
// BenchmarkTramInsertFlush) live next to the unexported types they
// exercise in internal/runtime, internal/netsim and internal/tram; this
// file holds the end-to-end composition. scripts/bench.sh runs all four
// with run-to-run variance validation and writes a JSON record.
package bench

import (
	"testing"

	"acic/internal/core"
	"acic/internal/netsim"
)

// BenchmarkHotPathSSSP runs one complete ACIC SSSP execution per iteration
// on a small random graph with realistic tiered latency and no simulated
// compute cost, so wall time and allocations are dominated by the
// messaging plumbing (mailboxes, netsim, tram) rather than by Work sleeps.
func BenchmarkHotPathSSSP(b *testing.B) {
	c := DefaultConfig()
	c.Scale = 10
	c.EdgeFactor = 8
	c.ComputeCost = 0
	c.Latency = netsim.DefaultLatency()
	g, err := c.MakeGraph(Random, 0)
	if err != nil {
		b.Fatal(err)
	}
	p := c.acicParams()
	p.ComputeCost = 0
	topo := c.Topo(1)
	// One Scratch for all iterations: steady-state runs recycle the chunk
	// arena, contribution pool and per-PE state instead of reallocating.
	// Warm-up solves before the timer fill it, so allocs/op counts warm
	// solves and not a share of the first ones' set-up: at -benchtime=10x
	// that share was a tenth of the first solve's ≈ 820 allocations, and
	// the second and third solve still make ≈ 40 and ≈ 25 more than a
	// warm one's ≈ 205 as the pools reach their steady size.
	sc := &core.Scratch{}
	opts := core.Options{Topo: topo, Latency: c.Latency, Params: p, Scratch: sc}
	for range 3 {
		if _, err := core.Run(g, 0, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(g, 0, opts); err != nil {
			b.Fatal(err)
		}
	}
}
