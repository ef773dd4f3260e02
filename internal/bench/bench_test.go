package bench

import (
	"strings"
	"testing"
	"time"

	"acic/internal/netsim"
)

// tinyConfig keeps unit-test experiment runs fast while still exercising
// every code path; nightly/benchmark runs use DefaultConfig or PaperConfig.
func tinyConfig() Config {
	c := DefaultConfig()
	c.Scale = 9
	c.EdgeFactor = 8
	c.Trials = 1
	c.Nodes = []int{1, 2}
	c.Verify = true
	c.Latency = netsim.LatencyModel{
		IntraProcess: 500 * time.Nanosecond,
		IntraNode:    2 * time.Microsecond,
		InterNode:    8 * time.Microsecond,
		PerItem:      5 * time.Nanosecond,
	}
	return c
}

func TestConfigDefaults(t *testing.T) {
	c := DefaultConfig()
	if c.NumVertices() != 1<<12 {
		t.Errorf("NumVertices = %d", c.NumVertices())
	}
	topo := c.Topo(4)
	if topo.Nodes != 4 || topo.TotalPEs() != 16 {
		t.Errorf("Topo(4) = %+v", topo)
	}
	p := PaperConfig()
	if p.Trials != 10 || len(p.Nodes) != 5 {
		t.Errorf("PaperConfig = %+v", p)
	}
}

func TestMakeGraphKinds(t *testing.T) {
	c := tinyConfig()
	for _, kind := range []GraphKind{Random, RMAT, Road} {
		g, err := c.MakeGraph(kind, 0)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if g.NumVertices() == 0 || g.NumEdges() == 0 {
			t.Errorf("%s: empty graph", kind)
		}
	}
	if _, err := c.MakeGraph("nope", 0); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestMakeGraphTrialsDiffer(t *testing.T) {
	c := tinyConfig()
	a, _ := c.MakeGraph(Random, 0)
	b, _ := c.MakeGraph(Random, 1)
	ae, be := a.Edges(), b.Edges()
	same := true
	for i := range ae {
		if ae[i] != be[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("trials 0 and 1 produced identical graphs")
	}
}

func TestFig1Histogram(t *testing.T) {
	c := tinyConfig()
	r, err := c.Fig1Histogram()
	if err != nil {
		t.Fatal(err)
	}
	if r.PeakActive <= 0 {
		t.Error("no active updates observed")
	}
	if r.LowestNonEmpty < 0 {
		t.Error("peak snapshot has no occupied buckets")
	}
	tb := r.Table()
	if tb.NumRows() == 0 {
		t.Error("Fig 1 table empty")
	}
	if !strings.Contains(tb.String(), "t_tram") {
		t.Error("table title missing thresholds")
	}
}

func TestFig3ReductionOverhead(t *testing.T) {
	c := tinyConfig()
	// The loss is divided by the reductions the window held. When other
	// tests hold the cores a cycle can take a scheduler quantum, and a
	// 50 ms window then holds a handful of reductions under a ±30 % swing
	// between the two runs; 250 ms holds enough of them for the quotient
	// to mean something.
	points, err := c.Fig3ReductionOverhead([]int{2, 4}, 250*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		if p.MethodsOff == 0 || p.MethodsOn == 0 {
			t.Errorf("PEs=%d: no methods executed: %+v", p.PEs, p)
		}
		if p.Reductions == 0 {
			t.Errorf("PEs=%d: no reductions completed", p.PEs)
		}
		// The paper's point: overhead per reduction is tiny (< 1%).
		if p.LossPerReductionPct > 1.0 {
			t.Errorf("PEs=%d: loss per reduction %.3f%% implausibly high", p.PEs, p.LossPerReductionPct)
		}
	}
	if Fig3Table(points).NumRows() != 2 {
		t.Error("Fig 3 table wrong size")
	}
}

func TestFig4And5Sweeps(t *testing.T) {
	c := tinyConfig()
	vals := []float64{0.05, 0.999}
	p4, err := c.Fig4TramPercentile(vals)
	if err != nil {
		t.Fatal(err)
	}
	p5, err := c.Fig5PQPercentile(vals)
	if err != nil {
		t.Fatal(err)
	}
	if len(p4) != 2 || len(p5) != 2 {
		t.Fatal("wrong sweep sizes")
	}
	for _, p := range append(p4, p5...) {
		if p.Runtime.N() != c.Trials || p.Runtime.Mean() <= 0 {
			t.Errorf("bad sweep point %+v", p)
		}
	}
	if SweepTable("t", "p", p4).NumRows() != 2 {
		t.Error("sweep table wrong size")
	}
}

func TestPercentileLists(t *testing.T) {
	paper := PaperPercentiles()
	if len(paper) != 20 {
		t.Errorf("PaperPercentiles has %d values, want 20", len(paper))
	}
	if paper[0] != 0.05 || paper[len(paper)-1] != 0.999 {
		t.Errorf("endpoints = %v, %v", paper[0], paper[len(paper)-1])
	}
	if len(QuickPercentiles()) == 0 {
		t.Error("QuickPercentiles empty")
	}
}

func TestFig6BufferSize(t *testing.T) {
	c := tinyConfig()
	points, err := c.Fig6BufferSize()
	if err != nil {
		t.Fatal(err)
	}
	// 2 node counts × 3 capacities.
	if len(points) != 6 {
		t.Fatalf("points = %d, want 6", len(points))
	}
	if Fig6Table(points).NumRows() != 6 {
		t.Error("Fig 6 table wrong size")
	}
}

func TestCompareACICDelta(t *testing.T) {
	c := tinyConfig()
	points, err := c.CompareACICDelta()
	if err != nil {
		t.Fatal(err)
	}
	// 2 kinds × 2 node counts.
	if len(points) != 4 {
		t.Fatalf("points = %d, want 4", len(points))
	}
	for _, p := range points {
		if p.ACICTime.Mean() <= 0 || p.DeltaTime.Mean() <= 0 {
			t.Errorf("%s/%d: non-positive runtimes", p.Kind, p.Nodes)
		}
		if p.ACICUpdates.Mean() <= 0 || p.DeltaUpdates.Mean() <= 0 {
			t.Errorf("%s/%d: missing update counts", p.Kind, p.Nodes)
		}
		// The paper-comparable count adds back what the sender suppressed.
		if c := p.ACICCreated.Mean(); c <= 0 || c >= p.ACICUpdates.Mean() {
			t.Errorf("%s/%d: created %.0f not in (0, %.0f)", p.Kind, p.Nodes, c, p.ACICUpdates.Mean())
		}
		if p.ACICTEPS.Mean() <= 0 || p.DeltaTEPS.Mean() <= 0 {
			t.Errorf("%s/%d: missing TEPS", p.Kind, p.Nodes)
		}
	}
	for _, tb := range []*struct {
		name string
		rows int
	}{} {
		_ = tb
	}
	if Fig7Table(points).NumRows() != 4 || Fig8Table(points).NumRows() != 4 || Fig9Table(points).NumRows() != 4 {
		t.Error("figure tables wrong size")
	}
}

func TestAggregationModes(t *testing.T) {
	c := tinyConfig()
	points, err := c.AggregationModes(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("points = %d, want 4", len(points))
	}
	if ModesTable(points).NumRows() != 4 {
		t.Error("modes table wrong size")
	}
}

func TestAblations(t *testing.T) {
	c := tinyConfig()
	points, err := c.Ablations(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 { // 2 kinds × 2 algorithms
		t.Fatalf("points = %d, want 4", len(points))
	}
	if AblationsTable(points).NumRows() != 4 {
		t.Error("ablations table wrong size")
	}
	for _, p := range points {
		// Only ACIC filters at the sender; its created count falls below the
		// paper-comparable one, everyone else's equals it.
		if u, c := p.Updates.Mean(), p.Created.Mean(); (p.Algo == "acic") != (c < u) || c > u {
			t.Errorf("%s/%s: updates %.0f, created %.0f", p.Kind, p.Algo, u, c)
		}
	}
}

func TestOverDecompositionAblation(t *testing.T) {
	c := tinyConfig()
	points, err := c.OverDecomposition(1, []int{1, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 { // 2 kinds × 2 factors
		t.Fatalf("points = %d, want 4", len(points))
	}
	if ODTable(points).NumRows() != 4 {
		t.Error("OD table wrong size")
	}
}

func TestThresholdPoliciesAblation(t *testing.T) {
	c := tinyConfig()
	points, err := c.ThresholdPolicies(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 { // 2 kinds × 2 policies
		t.Fatalf("points = %d, want 4", len(points))
	}
	if PolicyTable(points).NumRows() != 4 {
		t.Error("policy table wrong size")
	}
}

func TestPartitionLayoutsAblation(t *testing.T) {
	c := tinyConfig()
	points, err := c.PartitionLayouts(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 { // 2 kinds × 2 layouts
		t.Fatalf("points = %d, want 4", len(points))
	}
	if PartitionTable(points).NumRows() != 4 {
		t.Error("partition table wrong size")
	}
}

func TestDeltaPoliciesAblation(t *testing.T) {
	c := tinyConfig()
	points, err := c.DeltaPolicies(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d, want 2", len(points))
	}
	if points[0].Delta <= points[1].Delta {
		t.Errorf("coarse Δ %.1f not above work-optimal %.1f", points[0].Delta, points[1].Delta)
	}
	// The dial the paper describes: the coarse policy must do at least as
	// many relaxations (more speculation).
	if points[0].Updates.Mean() < points[1].Updates.Mean() {
		t.Errorf("coarse Δ did fewer relaxations (%.0f) than work-optimal (%.0f)",
			points[0].Updates.Mean(), points[1].Updates.Mean())
	}
	if DeltaTable(points).NumRows() != 2 {
		t.Error("delta table wrong size")
	}
}

func TestRoadGraph(t *testing.T) {
	c := tinyConfig()
	points, err := c.RoadGraph(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d, want 3", len(points))
	}
	// The synchronous algorithms must report synchronizations; ACIC none.
	for _, p := range points {
		switch p.Algo {
		case "acic":
			if p.Syncs.Mean() != 0 {
				t.Error("ACIC reported synchronizations")
			}
		default:
			if p.Syncs.Mean() <= 0 {
				t.Errorf("%s reported no synchronizations", p.Algo)
			}
		}
	}
	if RoadTable(points).NumRows() != 3 {
		t.Error("road table wrong size")
	}
}
