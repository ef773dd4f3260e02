// Package acic's top-level benchmarks regenerate every table and figure of
// the paper's evaluation (§IV), one testing.B benchmark per figure. Each
// benchmark iteration executes the corresponding experiment end-to-end on
// the simulated machine at a reduced scale; cmd/sssp-bench runs the same
// experiments at full configured scale and prints their data tables.
//
//	go test -bench=. -benchmem
//	go test -bench=BenchmarkFig7 -benchtime=3x
//
// The reported ns/op is the wall time of a whole experiment, not of a
// single SSSP run; per-figure data goes to the benchmark log (b.Log).
package acic_test

import (
	"testing"
	"time"

	"acic/internal/bench"
	"acic/internal/netsim"
)

// benchConfig is the scaled-down configuration the testing.B harness uses;
// it matches DefaultConfig in structure but shrinks the graphs so a full
// -bench=. sweep completes in minutes on a laptop.
func benchConfig() bench.Config {
	c := bench.DefaultConfig()
	c.Scale = 10
	c.EdgeFactor = 8
	c.Trials = 1
	c.Nodes = []int{1, 2}
	c.ComputeCost = time.Microsecond
	c.Latency = netsim.DefaultLatency()
	return c
}

// BenchmarkFig1HistogramSnapshot regenerates Fig. 1: the merged global
// update histogram mid-run on an RMAT graph with p_tram = 0.1.
func BenchmarkFig1HistogramSnapshot(b *testing.B) {
	c := benchConfig()
	for i := 0; i < b.N; i++ {
		r, err := c.Fig1Histogram()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("peak active=%d lowest bucket=%d t_tram=%d t_pq=%d",
				r.PeakActive, r.LowestNonEmpty, r.Snapshot.TTram, r.Snapshot.TPQ)
		}
	}
}

// BenchmarkFig3ReductionOverhead regenerates Fig. 3: work-method loss per
// concurrent reduction across parallelism levels.
func BenchmarkFig3ReductionOverhead(b *testing.B) {
	c := benchConfig()
	for i := 0; i < b.N; i++ {
		points, err := c.Fig3ReductionOverhead([]int{2, 4, 8}, 100*time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, p := range points {
				b.Logf("PEs=%d loss/reduction=%.5f%%", p.PEs, p.LossPerReductionPct)
			}
		}
	}
}

// BenchmarkFig4TramPercentile regenerates Fig. 4: runtime vs p_tram on the
// one-node random graph (paper optimum: 0.999).
func BenchmarkFig4TramPercentile(b *testing.B) {
	c := benchConfig()
	for i := 0; i < b.N; i++ {
		points, err := c.Fig4TramPercentile(bench.QuickPercentiles())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, p := range points {
				b.Logf("p_tram=%.3f runtime=%.4fs", p.Value, p.Runtime.Mean())
			}
		}
	}
}

// BenchmarkFig5PQPercentile regenerates Fig. 5: runtime vs p_pq (paper
// optimum: 0.05).
func BenchmarkFig5PQPercentile(b *testing.B) {
	c := benchConfig()
	for i := 0; i < b.N; i++ {
		points, err := c.Fig5PQPercentile(bench.QuickPercentiles())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, p := range points {
				b.Logf("p_pq=%.3f runtime=%.4fs", p.Value, p.Runtime.Mean())
			}
		}
	}
}

// BenchmarkFig6BufferSize regenerates Fig. 6: runtime vs tramlib buffer
// capacity across node counts.
func BenchmarkFig6BufferSize(b *testing.B) {
	c := benchConfig()
	for i := 0; i < b.N; i++ {
		points, err := c.Fig6BufferSize()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, p := range points {
				b.Logf("nodes=%d capacity=%d runtime=%.4fs", p.Nodes, p.Capacity, p.Runtime.Mean())
			}
		}
	}
}

// compareOnce memoizes the Figs. 7-9 comparison runs within one bench
// process so the three figure benchmarks don't redo identical work per
// figure when run together.
func runCompare(b *testing.B, c bench.Config) []bench.ComparePoint {
	b.Helper()
	points, err := c.CompareACICDelta()
	if err != nil {
		b.Fatal(err)
	}
	return points
}

// BenchmarkFig7ExecutionTime regenerates Fig. 7: ACIC vs hybrid Δ-stepping
// wall time on random and RMAT graphs across node counts.
func BenchmarkFig7ExecutionTime(b *testing.B) {
	c := benchConfig()
	for i := 0; i < b.N; i++ {
		points := runCompare(b, c)
		if i == 0 {
			for _, p := range points {
				b.Logf("%s nodes=%d acic=%.4fs delta=%.4fs", p.Kind, p.Nodes, p.ACICTime.Mean(), p.DeltaTime.Mean())
			}
		}
	}
}

// BenchmarkFig8TEPS regenerates Fig. 8: traversed edges per second for the
// same comparison.
func BenchmarkFig8TEPS(b *testing.B) {
	c := benchConfig()
	for i := 0; i < b.N; i++ {
		points := runCompare(b, c)
		if i == 0 {
			for _, p := range points {
				b.Logf("%s nodes=%d acic=%.3g delta=%.3g TEPS", p.Kind, p.Nodes, p.ACICTEPS.Mean(), p.DeltaTEPS.Mean())
			}
		}
	}
}

// BenchmarkFig9UpdateCounts regenerates Fig. 9: updates (edge relaxations)
// created by each algorithm.
func BenchmarkFig9UpdateCounts(b *testing.B) {
	c := benchConfig()
	for i := 0; i < b.N; i++ {
		points := runCompare(b, c)
		if i == 0 {
			for _, p := range points {
				b.Logf("%s nodes=%d acic=%.0f delta=%.0f updates", p.Kind, p.Nodes, p.ACICUpdates.Mean(), p.DeltaUpdates.Mean())
			}
		}
	}
}

// BenchmarkTramAggregationModes regenerates the §IV-E prose finding that WP
// aggregation is the best of {PP, WP, WW, PW} for SSSP.
func BenchmarkTramAggregationModes(b *testing.B) {
	c := benchConfig()
	for i := 0; i < b.N; i++ {
		points, err := c.AggregationModes(1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, p := range points {
				b.Logf("mode=%s runtime=%.4fs", p.Mode, p.Runtime.Mean())
			}
		}
	}
}

// BenchmarkAblationDistributedControl contrasts ACIC with distributed
// control, the asynchronous design without a global view that the paper
// positions itself against (§I): ACIC with introspection switched off.
func BenchmarkAblationDistributedControl(b *testing.B) {
	c := benchConfig()
	for i := 0; i < b.N; i++ {
		points, err := c.Ablations(1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, p := range points {
				b.Logf("%s/%s runtime=%.4fs updates=%.0f", p.Kind, p.Algo, p.Runtime.Mean(), p.Updates.Mean())
			}
		}
	}
}

// BenchmarkAblationOverDecomposition measures the §V over-decomposition
// extension: chunked round-robin partitioning vs the paper's 1-D blocks.
func BenchmarkAblationOverDecomposition(b *testing.B) {
	c := benchConfig()
	for i := 0; i < b.N; i++ {
		points, err := c.OverDecomposition(1, []int{1, 8})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, p := range points {
				b.Logf("%s chunks/PE=%d runtime=%.4fs", p.Kind, p.Factor, p.Runtime.Mean())
			}
		}
	}
}

// BenchmarkAblationThresholdPolicy measures the §V smooth threshold
// function against the paper's two-tier rule (Algorithm 1).
func BenchmarkAblationThresholdPolicy(b *testing.B) {
	c := benchConfig()
	for i := 0; i < b.N; i++ {
		points, err := c.ThresholdPolicies(1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, p := range points {
				b.Logf("%s/%s runtime=%.4fs updates=%.0f", p.Kind, p.Policy, p.Runtime.Mean(), p.Updates.Mean())
			}
		}
	}
}

// BenchmarkAblationDeltaChoice measures the Δ parallelism-vs-waste dial the
// paper's §I describes, via the baseline's two Δ heuristics.
func BenchmarkAblationDeltaChoice(b *testing.B) {
	c := benchConfig()
	for i := 0; i < b.N; i++ {
		points, err := c.DeltaPolicies(1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, p := range points {
				b.Logf("%s Δ=%.1f runtime=%.4fs relaxations=%.0f", p.Label, p.Delta, p.Runtime.Mean(), p.Updates.Mean())
			}
		}
	}
}

// BenchmarkAblationPartitionLayouts contrasts Δ-stepping under
// vertex-balanced and edge-balanced 1-D partitioning — the load-balance
// mechanism behind the paper's §IV-F analysis.
func BenchmarkAblationPartitionLayouts(b *testing.B) {
	c := benchConfig()
	for i := 0; i < b.N; i++ {
		points, err := c.PartitionLayouts(2)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, p := range points {
				b.Logf("%s/%s runtime=%.4fs relaxations=%.0f", p.Kind, p.Layout, p.Runtime.Mean(), p.Updates.Mean())
			}
		}
	}
}

// BenchmarkRoadGraph runs the §V future-work experiment: high-diameter
// road-style grid, asynchronous vs synchronous.
func BenchmarkRoadGraph(b *testing.B) {
	c := benchConfig()
	for i := 0; i < b.N; i++ {
		points, err := c.RoadGraph(1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, p := range points {
				b.Logf("%s runtime=%.4fs syncs=%.0f", p.Algo, p.Runtime.Mean(), p.Syncs.Mean())
			}
		}
	}
}
