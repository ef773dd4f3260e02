package core

import (
	"testing"

	"acic/internal/gen"
	"acic/internal/histogram"
	"acic/internal/netsim"
)

// TestFirstBroadcastAfterSeedingKeepsThePercentiles pins the threshold
// rule's direction gate at the start of a run. The first reduction that
// sees the seeded updates counts a handful of them, far below the low
// watermark, but the frontier is growing: the root must broadcast a
// percentile t_pq, not the top bucket, or the frontier grows unordered
// until it first crosses the watermark.
func TestFirstBroadcastAfterSeedingKeepsThePercentiles(t *testing.T) {
	g := gen.Uniform(1<<10, 1<<13, gen.Config{Seed: 29})
	topo := netsim.SingleNode(4)
	p := DefaultParams()
	p.AuditTrace = true
	res := runAndVerify(t, g, 0, Options{Topo: topo, Params: p})
	for _, a := range res.Stats.AuditTrace {
		if a.Active == 0 {
			continue // a reduction that completed before the seed's updates counted
		}
		if watermark := p.LowWatermarkPerPE * int64(topo.TotalPEs()); a.Active > watermark {
			t.Fatalf("epoch %d: %d active at the first broadcast, want a start below the watermark %d", a.Epoch, a.Active, watermark)
		}
		if a.TPQ >= histogram.DefaultBuckets-1 {
			t.Errorf("epoch %d, %d active: t_pq = %d, the top bucket; want a percentile", a.Epoch, a.Active, a.TPQ)
		}
		return
	}
	t.Fatal("no reduction saw an active update")
}
