package core

import (
	"testing"
	"time"

	"acic/internal/gen"
	"acic/internal/graph"
	"acic/internal/netsim"
	"acic/internal/simclock"
)

// TestFakeClockElapsed pins the run driver's timing to Options.Clock: with a
// fake clock that never advances, Stats.Elapsed must be exactly zero no
// matter how long the run really took.
func TestFakeClockElapsed(t *testing.T) {
	g := graph.MustBuild(4, []graph.Edge{
		{From: 0, To: 1, Weight: 1}, {From: 0, To: 2, Weight: 4},
		{From: 1, To: 2, Weight: 2}, {From: 1, To: 3, Weight: 6},
		{From: 2, To: 3, Weight: 3},
	})
	res := runAndVerify(t, g, 0, Options{Clock: simclock.NewFake(time.Unix(0, 0))})
	if res.Stats.Elapsed != 0 {
		t.Errorf("Elapsed = %v with a frozen fake clock, want 0", res.Stats.Elapsed)
	}
}

// TestFirstBroadcastAfterSeedingKeepsThePercentiles pins the threshold
// rule's direction gate at the start of a run, on a clock that never
// advances. The first reduction that sees the seeded updates counts a
// handful of them, far below the low watermark, but the frontier is
// growing: the root must broadcast a percentile t_pq, not the top bucket,
// or the frontier grows unordered until it first crosses the watermark.
func TestFirstBroadcastAfterSeedingKeepsThePercentiles(t *testing.T) {
	g := gen.Uniform(1<<10, 1<<13, gen.Config{Seed: 29})
	topo := netsim.SingleNode(4)
	p := DefaultParams()
	p.AuditTrace = true
	res := runAndVerify(t, g, 0, Options{Topo: topo, Params: p, Clock: simclock.NewFake(time.Unix(0, 0))})
	for _, a := range res.Stats.AuditTrace {
		if a.Active == 0 {
			continue // a reduction that completed before the seed's updates counted
		}
		if watermark := p.LowWatermarkPerPE * int64(topo.TotalPEs()); a.Active > watermark {
			t.Fatalf("epoch %d: %d active at the first broadcast, want a start below the watermark %d", a.Epoch, a.Active, watermark)
		}
		if a.TPQ >= p.BucketCount-1 {
			t.Errorf("epoch %d, %d active: t_pq = %d, the top bucket; want a percentile", a.Epoch, a.Active, a.TPQ)
		}
		return
	}
	t.Fatal("no reduction saw an active update")
}
