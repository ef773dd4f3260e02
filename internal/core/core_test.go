package core

import (
	"testing"
	"testing/quick"
	"time"

	"acic/internal/gen"
	"acic/internal/graph"
	"acic/internal/netsim"
	"acic/internal/seq"
	"acic/internal/tram"
)

// runAndVerify executes ACIC and checks the distance vector against
// Dijkstra, returning the result for further assertions.
func runAndVerify(t *testing.T, g *graph.Graph, source int, opts Options) *Result {
	t.Helper()
	res := mustRun(t, g, source, opts)
	want := seq.Dijkstra(g, source)
	if !seq.Equal(res.Dist, want.Dist) {
		i := seq.FirstMismatch(res.Dist, want.Dist)
		t.Fatalf("distance mismatch at vertex %d: acic=%v dijkstra=%v", i, res.Dist[i], want.Dist[i])
	}
	return res
}

func mustRun(t *testing.T, g *graph.Graph, source int, opts Options) *Result {
	t.Helper()
	type outcome struct {
		res *Result
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		res, err := Run(g, source, opts)
		ch <- outcome{res, err}
	}()
	select {
	case o := <-ch:
		if o.err != nil {
			t.Fatalf("Run failed: %v", o.err)
		}
		return o.res
	case <-time.After(60 * time.Second):
		t.Fatal("ACIC run did not terminate")
		return nil
	}
}

func TestDiamondGraph(t *testing.T) {
	g := graph.MustBuild(4, []graph.Edge{
		{From: 0, To: 1, Weight: 1}, {From: 0, To: 2, Weight: 4},
		{From: 1, To: 2, Weight: 2}, {From: 1, To: 3, Weight: 6},
		{From: 2, To: 3, Weight: 3},
	})
	res := runAndVerify(t, g, 0, Options{})
	if res.Stats.UpdatesCreated != res.Stats.UpdatesProcessed {
		t.Errorf("not quiescent: created %d != processed %d",
			res.Stats.UpdatesCreated, res.Stats.UpdatesProcessed)
	}
	if res.Stats.UpdatesCreated == 0 {
		t.Error("no updates counted")
	}
}

func TestFixtures(t *testing.T) {
	cases := map[string]*graph.Graph{
		"path":      gen.Path(200),
		"star":      gen.Star(200),
		"cycle":     gen.Cycle(100),
		"grid":      gen.Grid(12, 12, gen.Config{Seed: 1}),
		"complete":  gen.Complete(30, gen.Config{Seed: 2}),
		"singleton": graph.MustBuild(1, nil),
	}
	for name, g := range cases {
		g := g
		t.Run(name, func(t *testing.T) {
			runAndVerify(t, g, 0, Options{})
		})
	}
}

func TestUnreachableVertices(t *testing.T) {
	// Two components; quiescence must terminate despite vertices that never
	// receive an update (the situation that sank the finalization-only
	// termination condition, §II-D).
	g := graph.MustBuild(6, []graph.Edge{
		{From: 0, To: 1, Weight: 1}, {From: 1, To: 2, Weight: 1},
		{From: 3, To: 4, Weight: 1}, {From: 4, To: 5, Weight: 1},
	})
	res := runAndVerify(t, g, 0, Options{})
	for v := 3; v < 6; v++ {
		if res.Dist[v] != seq.Inf {
			t.Errorf("unreachable vertex %d got distance %v", v, res.Dist[v])
		}
	}
}

func TestSourceWithNoOutEdges(t *testing.T) {
	g := graph.MustBuild(3, []graph.Edge{{From: 1, To: 2, Weight: 1}})
	res := runAndVerify(t, g, 0, Options{})
	if res.Dist[0] != 0 {
		t.Errorf("source distance = %v", res.Dist[0])
	}
}

func TestNonZeroSource(t *testing.T) {
	g := gen.Grid(10, 10, gen.Config{Seed: 3})
	runAndVerify(t, g, 57, Options{})
}

func TestRandomGraphSingleNode(t *testing.T) {
	g := gen.Uniform(2000, 16000, gen.Config{Seed: 4})
	res := runAndVerify(t, g, 0, Options{Topo: netsim.SingleNode(8)})
	if res.Stats.Reductions == 0 {
		t.Error("no reductions completed — introspection loop never ran")
	}
}

func TestRMATGraphSingleNode(t *testing.T) {
	g := gen.RMAT(11, 8, gen.DefaultRMAT(), gen.Config{Seed: 5})
	runAndVerify(t, g, 0, Options{Topo: netsim.SingleNode(8)})
}

func TestMultiNodeWithLatency(t *testing.T) {
	g := gen.Uniform(1500, 12000, gen.Config{Seed: 6})
	opts := Options{
		Topo:    netsim.Topology{Nodes: 2, ProcsPerNode: 2, PEsPerProc: 3},
		Latency: netsim.LatencyModel{IntraProcess: time.Microsecond, IntraNode: 3 * time.Microsecond, InterNode: 10 * time.Microsecond, PerItem: 5 * time.Nanosecond},
	}
	runAndVerify(t, g, 0, opts)
}

func TestAllTramModes(t *testing.T) {
	g := gen.Uniform(1000, 8000, gen.Config{Seed: 7})
	for _, mode := range []tram.Mode{tram.WW, tram.WP, tram.PW, tram.PP} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			p := DefaultParams()
			p.TramMode = mode
			runAndVerify(t, g, 0, Options{Topo: netsim.SingleNode(6), Params: p})
		})
	}
}

func TestTramCapacities(t *testing.T) {
	g := gen.Uniform(1000, 8000, gen.Config{Seed: 8})
	for _, capacity := range tram.SupportedCapacities {
		p := DefaultParams()
		p.TramCapacity = capacity
		runAndVerify(t, g, 0, Options{Topo: netsim.SingleNode(4), Params: p})
	}
}

func TestPercentileExtremes(t *testing.T) {
	g := gen.Uniform(800, 6400, gen.Config{Seed: 9})
	for _, c := range []struct{ ptram, ppq float64 }{
		{0.05, 0.05}, {0.999, 0.999}, {0.05, 0.999}, {0.999, 0.05}, {0.5, 0.5},
	} {
		p := DefaultParams()
		p.PTram, p.PPQ = c.ptram, c.ppq
		runAndVerify(t, g, 0, Options{Topo: netsim.SingleNode(4), Params: p})
	}
}

// TestNarrowBucketWidth runs with buckets so narrow that most distances
// clamp into the top one: the thresholds then cannot order them, and the
// answer must still be exact.
func TestNarrowBucketWidth(t *testing.T) {
	g := gen.Grid(8, 8, gen.Config{Seed: 10})
	p := DefaultParams()
	p.BucketWidth = 0.01
	runAndVerify(t, g, 0, Options{Params: p})
}

func TestSinglePE(t *testing.T) {
	g := gen.Uniform(300, 2400, gen.Config{Seed: 12})
	runAndVerify(t, g, 0, Options{Topo: netsim.SingleNode(1)})
}

func TestMorePEsThanVertices(t *testing.T) {
	g := gen.Complete(6, gen.Config{Seed: 13})
	runAndVerify(t, g, 0, Options{Topo: netsim.SingleNode(8)})
}

func TestHistogramTrace(t *testing.T) {
	g := gen.Uniform(1000, 8000, gen.Config{Seed: 15})
	p := DefaultParams()
	p.AuditTrace = true
	res := runAndVerify(t, g, 0, Options{Topo: netsim.SingleNode(4), Params: p})
	if len(res.Stats.AuditTrace) == 0 {
		t.Fatal("no histogram snapshots recorded")
	}
	if int64(len(res.Stats.AuditTrace)) != res.Stats.Reductions {
		t.Errorf("trace length %d != reductions %d", len(res.Stats.AuditTrace), res.Stats.Reductions)
	}
	last := res.Stats.AuditTrace[len(res.Stats.AuditTrace)-1]
	if last.Active != 0 {
		t.Errorf("final snapshot has %d active updates, want 0", last.Active)
	}
}

func TestStatsConsistency(t *testing.T) {
	g := gen.Uniform(1200, 9600, gen.Config{Seed: 16})
	res := runAndVerify(t, g, 0, Options{Topo: netsim.SingleNode(4)})
	s := res.Stats
	if s.UpdatesCreated != s.UpdatesProcessed {
		t.Errorf("created %d != processed %d at termination", s.UpdatesCreated, s.UpdatesProcessed)
	}
	// Every created update is either rejected or relaxed or superseded;
	// rejected must not exceed processed.
	if s.UpdatesRejected > s.UpdatesProcessed {
		t.Errorf("rejected %d > processed %d", s.UpdatesRejected, s.UpdatesProcessed)
	}
	// Relaxations + 1 seed == created + suppressed (each relaxation is a
	// candidate the sender either creates or suppresses; the virtual seed
	// adds one created).
	if s.Relaxations+1 != s.UpdatesCreated+s.UpdatesSuppressed {
		t.Errorf("relaxations %d + 1 != created %d + suppressed %d", s.Relaxations, s.UpdatesCreated, s.UpdatesSuppressed)
	}
	if s.UpdatesSuppressed == 0 {
		t.Error("the sender suppressed no candidate")
	}
	if s.TramStats.Items == 0 {
		t.Error("tram carried no items")
	}
	if s.Elapsed <= 0 {
		t.Error("elapsed time not measured")
	}
}

func TestFewerUpdatesThanBellmanFordStyleFlooding(t *testing.T) {
	// ACIC's pq discipline should keep relaxations well below a full
	// label-correcting flood (Bellman-Ford edge scans) on a low-diameter
	// random graph — the mechanism behind Fig. 9.
	g := gen.Uniform(2000, 16000, gen.Config{Seed: 17})
	res := runAndVerify(t, g, 0, Options{Topo: netsim.SingleNode(4)})
	bf := seq.BellmanFord(g, 0)
	if res.Stats.Relaxations >= bf.Relaxations {
		t.Errorf("ACIC relaxations %d not below Bellman-Ford %d",
			res.Stats.Relaxations, bf.Relaxations)
	}
}

func TestRunValidation(t *testing.T) {
	g := gen.Path(10)
	if _, err := Run(g, -1, Options{}); err == nil {
		t.Error("negative source accepted")
	}
	if _, err := Run(g, 10, Options{}); err == nil {
		t.Error("out-of-range source accepted")
	}
	bad := Options{Params: Params{PTram: 2}}
	if _, err := Run(g, 0, bad); err == nil {
		t.Error("p_tram > 1 accepted")
	}
	badTopo := Options{Topo: netsim.Topology{Nodes: -1, ProcsPerNode: 1, PEsPerProc: 1}}
	if _, err := Run(g, 0, badTopo); err == nil {
		t.Error("invalid topology accepted")
	}
}

func TestDeterministicDistances(t *testing.T) {
	// Distances must be identical across runs (message timing varies but
	// the fixed point does not).
	g := gen.RMAT(9, 8, gen.DefaultRMAT(), gen.Config{Seed: 18})
	a := mustRun(t, g, 0, Options{Topo: netsim.SingleNode(4)})
	b := mustRun(t, g, 0, Options{Topo: netsim.SingleNode(4)})
	if !seq.Equal(a.Dist, b.Dist) {
		t.Error("two runs disagree on distances")
	}
}

// Property: ACIC matches Dijkstra on arbitrary random graphs, sources, PE
// counts and percentile parameters.
func TestQuickMatchesDijkstra(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := func(seed uint64, nRaw uint8, srcRaw uint8, pesRaw uint8, ptRaw, pqRaw uint8) bool {
		n := int(nRaw%200) + 2
		m := n * 6
		src := int(srcRaw) % n
		pes := int(pesRaw%6) + 1
		g := gen.Uniform(n, m, gen.Config{Seed: seed, MaxWeight: 100})
		p := DefaultParams()
		p.PTram = 0.05 + float64(ptRaw%10)*0.09
		p.PPQ = 0.05 + float64(pqRaw%10)*0.09
		res, err := Run(g, src, Options{Topo: netsim.SingleNode(pes), Params: p})
		if err != nil {
			return false
		}
		return seq.Equal(res.Dist, seq.Dijkstra(g, src).Dist)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func BenchmarkACICUniform(b *testing.B) {
	g := gen.Uniform(1<<12, 16<<12, gen.Config{Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(g, 0, Options{Topo: netsim.SingleNode(8)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkACICRMAT(b *testing.B) {
	g := gen.RMAT(12, 16, gen.DefaultRMAT(), gen.Config{Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(g, 0, Options{Topo: netsim.SingleNode(8)}); err != nil {
			b.Fatal(err)
		}
	}
}
