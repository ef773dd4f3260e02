package engine

import (
	"context"
	"math"
	"testing"

	"acic/internal/dynamic"
	"acic/internal/gen"
	"acic/internal/graph"
	"acic/internal/seq"
	"acic/internal/xrand"
)

// checkPath validates a path's edges exist in g and its weights sum to the
// reported distance.
func checkPath(t *testing.T, g *graph.Graph, pr *PathResult) {
	t.Helper()
	if len(pr.Path) == 0 || pr.Path[0] != int32(pr.Source) || pr.Path[len(pr.Path)-1] != int32(pr.Target) {
		t.Fatalf("path %v does not run %d..%d", pr.Path, pr.Source, pr.Target)
	}
	var sum float64
	for i := 0; i+1 < len(pr.Path); i++ {
		from, to := pr.Path[i], pr.Path[i+1]
		ts, ws := g.Neighbors(int(from))
		best := math.Inf(1)
		for j, cand := range ts {
			if cand == to && ws[j] < best {
				best = ws[j]
			}
		}
		if math.IsInf(best, 1) {
			t.Fatalf("path step %d->%d is not an edge", from, to)
		}
		sum += best
	}
	if math.Abs(sum-pr.Distance) > 1e-9*math.Max(1, pr.Distance) {
		t.Fatalf("path weights sum to %g, reported distance %g", sum, pr.Distance)
	}
}

// oracleGraphs are the shapes the bidirectional search is checked on:
// generator families, a graph in two components, zero-weight edges (with
// zero-weight cycles), and parallel edges beside self-loops.
func oracleGraphs() map[string]*graph.Graph {
	disconnected := func() *graph.Graph {
		a := gen.Uniform(60, 360, gen.Config{Seed: 5}).Edges()
		for _, e := range gen.Uniform(40, 240, gen.Config{Seed: 6}).Edges() {
			a = append(a, graph.Edge{From: e.From + 60, To: e.To + 60, Weight: e.Weight})
		}
		return graph.MustBuild(100, a)
	}
	zeroWeight := func() *graph.Graph {
		es := gen.Uniform(200, 1000, gen.Config{Seed: 7}).Edges()
		for i := range es {
			if i%3 != 0 {
				es[i].Weight = 0
			}
		}
		return graph.MustBuild(200, es)
	}
	multi := func() *graph.Graph {
		r := xrand.New(8)
		var es []graph.Edge
		for i := 0; i < 400; i++ {
			from, to := int32(r.Intn(50)), int32(r.Intn(50))
			w := float64(r.Intn(5))
			es = append(es, graph.Edge{From: from, To: to, Weight: w + 1}, graph.Edge{From: from, To: to, Weight: w})
			if i%4 == 0 {
				es = append(es, graph.Edge{From: from, To: from, Weight: w})
			}
		}
		return graph.MustBuild(50, es)
	}
	return map[string]*graph.Graph{
		"uniform":      gen.Uniform(300, 2400, gen.Config{Seed: 4}),
		"rmat":         gen.RMAT(9, 8, gen.DefaultRMAT(), gen.Config{Seed: 4}),
		"grid":         gen.Grid(16, 16, gen.Config{Seed: 4}),
		"star":         gen.Star(64),
		"path":         gen.Path(64),
		"disconnected": disconnected(),
		"zero-weight":  zeroWeight(),
		"multi":        multi(),
	}
}

// TestBidirectionalMatchesOracle checks the bidirectional search's distance
// against full Dijkstra on every oracle graph, for the pairs the old
// one-sided search was checked on (source 0 to 0, 1, n/2 and n-1) and for
// random pairs, source == target and unreachable targets among them. Every
// reachable answer's path is walked edge by edge. One pathSearch serves a
// whole graph, and after its first search its stamp jumps to MaxUint32-2,
// so the stamp wraps while labels stamped 1 by that search still sit in the
// arrays: a wrap that did not clear them would read them as current.
func TestBidirectionalMatchesOracle(t *testing.T) {
	for name, g := range oracleGraphs() {
		n := g.NumVertices()
		dv := dynamic.FromCSR(g).Current()
		r := xrand.New(11)
		pairs := [][2]int{{0, 0}, {0, 1}, {0, n / 2}, {0, n - 1}}
		for i := 0; i < 40; i++ {
			s := r.Intn(n)
			pairs = append(pairs, [2]int{s, r.Intn(n)})
			if i%10 == 0 {
				pairs = append(pairs, [2]int{s, s})
			}
		}
		var ps pathSearch
		oracles := map[int][]float64{}
		unreachable := 0
		for i, pair := range pairs {
			source, target := pair[0], pair[1]
			if i == 2 { // after the first search, pairs[1]
				ps.gen = math.MaxUint32 - 2
			}
			pr := ps.run(dv.Out, dv.In, source, target)
			if oracles[source] == nil {
				oracles[source] = seq.Dijkstra(g, source).Dist
			}
			want := oracles[source][target]
			if math.IsInf(want, 1) {
				unreachable++
				if pr.Reachable || pr.Path != nil || !math.IsInf(pr.Distance, 1) {
					t.Errorf("%s: %d->%d reported reachable (%+v), oracle says not", name, source, target, pr)
				}
				continue
			}
			if !pr.Reachable {
				t.Errorf("%s: %d->%d reported unreachable, oracle distance %g", name, source, target, want)
				continue
			}
			if math.Abs(pr.Distance-want) > 1e-9*math.Max(1, want) {
				t.Errorf("%s: %d->%d distance %g, oracle %g", name, source, target, pr.Distance, want)
			}
			checkPath(t, g, pr)
		}
		if ps.gen >= math.MaxUint32-2 {
			t.Errorf("%s: stamp %d never wrapped", name, ps.gen)
		}
		if name == "disconnected" && unreachable == 0 {
			t.Errorf("%s: no unreachable pair was checked", name)
		}
	}
}

// TestBidirectionalPrunes: a relaxation whose tentative distance plus the
// other side's heap minimum reaches μ must be discarded, not pushed.
func TestBidirectionalPrunes(t *testing.T) {
	edges := []graph.Edge{
		{From: 0, To: 1, Weight: 1},   // direct cheap edge to goal
		{From: 0, To: 2, Weight: 0.5}, // settled before the search stops
		{From: 2, To: 3, Weight: 5},   // tentative 5.5 + 0 >= 1: pruned
		{From: 2, To: 4, Weight: 9},   // tentative 9.5 + 0 >= 1: pruned
	}
	g, err := graph.Build(5, edges)
	if err != nil {
		t.Fatal(err)
	}
	// Both frontiers hold one vertex, so the forward side expands 0 first:
	// 0->1 meets the target's backward label and sets μ = 1, and its own
	// label (1 + topB 0 >= μ) is pruned; 0->2 is pushed (0.5 + 0 < 1).
	// The forward side, still the smaller, expands 2 and prunes both of
	// its detours; then topF + topB = +Inf >= μ stops the search.
	var ps pathSearch
	dv := dynamic.FromCSR(g).Current()
	pr := ps.run(dv.Out, dv.In, 0, 1)
	if !pr.Reachable || pr.Distance != 1 {
		t.Fatalf("distance = %v (reachable=%v), want 1", pr.Distance, pr.Reachable)
	}
	checkPath(t, g, pr)
	if pr.Pruned != 3 || pr.Settled != 2 {
		t.Errorf("pruned = %d, settled = %d; want 3 (0->1 after meeting, both detours out of 2) and 2 (0, 2)", pr.Pruned, pr.Settled)
	}
}

// TestPathUnreachable: no path → Reachable false, +Inf distance, nil path.
func TestPathUnreachable(t *testing.T) {
	g, err := graph.Build(3, []graph.Edge{{From: 0, To: 1, Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	e := mustEngine(t, g, Config{})
	pr, err := e.Path(context.Background(), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Reachable || pr.Path != nil || !math.IsInf(pr.Distance, 1) {
		t.Errorf("unreachable pair: %+v", pr)
	}
}

// TestPathSourceEqualsTarget: the trivial path is one vertex at distance 0.
func TestPathSourceEqualsTarget(t *testing.T) {
	g := gen.Path(8)
	e := mustEngine(t, g, Config{})
	pr, err := e.Path(context.Background(), 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !pr.Reachable || pr.Distance != 0 || len(pr.Path) != 1 || pr.Path[0] != 3 {
		t.Errorf("self path: %+v", pr)
	}
}

// TestPathServedFromCachedVector: after a full /sssp query, /path for the
// same source answers from the cached tree without a search.
func TestPathServedFromCachedVector(t *testing.T) {
	g := testGraph()
	e := mustEngine(t, g, Config{})
	full, err := e.Query(context.Background(), 2, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	target := -1
	for v, d := range full.Dist {
		if v != 2 && !math.IsInf(d, 1) {
			target = v
			break
		}
	}
	if target < 0 {
		t.Skip("no reachable target")
	}
	pr, err := e.Path(context.Background(), 2, target)
	if err != nil {
		t.Fatal(err)
	}
	if !pr.CacheHit {
		t.Error("path after full query did not use the cached vector")
	}
	if pr.Settled != 0 || pr.Pruned != 0 {
		t.Errorf("cached path reports search work: settled=%d pruned=%d", pr.Settled, pr.Pruned)
	}
	if math.Abs(pr.Distance-full.Dist[target]) > 1e-12 {
		t.Errorf("cached path distance %g, vector distance %g", pr.Distance, full.Dist[target])
	}
	checkPath(t, g, pr)
	// And the search answer agrees with the cached one.
	e2 := mustEngine(t, g, Config{})
	pr2, err := e2.Path(context.Background(), 2, target)
	if err != nil {
		t.Fatal(err)
	}
	if pr2.CacheHit {
		t.Error("fresh engine reported a cache hit")
	}
	if math.Abs(pr2.Distance-pr.Distance) > 1e-9 {
		t.Errorf("search distance %g != cached distance %g", pr2.Distance, pr.Distance)
	}
}
