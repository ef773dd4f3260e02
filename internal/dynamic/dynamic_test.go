package dynamic

import (
	"errors"
	"math"
	"sort"
	"testing"

	"acic/internal/graph"
	"acic/internal/seq"
)

// diamond builds the 6-vertex test graph
//
//	0 →1→ 1 →1→ 2 →1→ 3
//	0 →10→ 4 →1→ 3,  3 →1→ 5
func diamond() *graph.Graph {
	return graph.MustBuild(6, []graph.Edge{
		{From: 0, To: 1, Weight: 1},
		{From: 1, To: 2, Weight: 1},
		{From: 2, To: 3, Weight: 1},
		{From: 0, To: 4, Weight: 10},
		{From: 4, To: 3, Weight: 1},
		{From: 3, To: 5, Weight: 1},
	})
}

// sortedEdges canonicalizes an edge multiset for comparison.
func sortedEdges(g *graph.Graph) []graph.Edge {
	es := g.Edges()
	sort.Slice(es, func(i, j int) bool {
		a, b := es[i], es[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return a.Weight < b.Weight
	})
	return es
}

func edgesEqual(t *testing.T, a, b *graph.Graph) {
	t.Helper()
	ea, eb := sortedEdges(a), sortedEdges(b)
	if len(ea) != len(eb) {
		t.Fatalf("edge counts differ: %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d differs: %+v vs %+v", i, ea[i], eb[i])
		}
	}
}

func TestFromCSRSnapshotRoundTrip(t *testing.T) {
	g := diamond()
	dg := FromCSR(g)
	if dg.NumVertices() != 6 || dg.NumEdges() != 6 || dg.Epoch() != 0 {
		t.Fatalf("shape: |V|=%d |E|=%d epoch=%d", dg.NumVertices(), dg.NumEdges(), dg.Epoch())
	}
	edgesEqual(t, g, dg.Snapshot())
}

// TestSnapshotIsTheCurrentGraph: Snapshot is an accessor — it returns the
// current version's forward graph itself, before and after a batch, and
// allocates nothing.
func TestSnapshotIsTheCurrentGraph(t *testing.T) {
	g := diamond()
	dg := FromCSR(g)
	if dg.Snapshot() != g {
		t.Fatal("Snapshot at epoch 0 is not the graph FromCSR was given")
	}
	if _, err := dg.Apply([]Mutation{{Op: Insert, From: 5, To: 0, Weight: 2}}); err != nil {
		t.Fatal(err)
	}
	if dg.Snapshot() != dg.Current().Out {
		t.Fatal("Snapshot is not Current().Out")
	}
	var sink *graph.Graph
	if allocs := testing.AllocsPerRun(100, func() { sink = dg.Snapshot() }); allocs != 0 {
		t.Fatalf("Snapshot made %v allocations, want 0", allocs)
	}
	_ = sink
}

func TestApplyClassifiesAndCounts(t *testing.T) {
	dg := FromCSR(diamond())
	d, err := dg.Apply([]Mutation{
		{Op: Insert, From: 0, To: 3, Weight: 0.5},
		{Op: Delete, From: 1, To: 2},
		{Op: SetWeight, From: 0, To: 4, Weight: 2}, // decrease (10 → 2)
		{Op: SetWeight, From: 3, To: 5, Weight: 7}, // increase (1 → 7)
		{Op: SetWeight, From: 2, To: 3, Weight: 1}, // no-op reweight
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.Epoch != 1 || dg.Epoch() != 1 {
		t.Fatalf("epoch: delta=%d graph=%d", d.Epoch, dg.Epoch())
	}
	if d.Inserted != 1 || d.Deleted != 1 || d.Reweighted != 3 {
		t.Fatalf("counts: %+v", d)
	}
	if len(d.Decreased) != 2 || len(d.Increased) != 2 {
		t.Fatalf("classification: %d decreased, %d increased", len(d.Decreased), len(d.Increased))
	}
	// The increase record carries the old weight.
	if d.Increased[1] != (graph.Edge{From: 3, To: 5, Weight: 1}) {
		t.Fatalf("increase record: %+v", d.Increased[1])
	}
	if dg.NumEdges() != 6 { // +1 insert −1 delete
		t.Fatalf("edge count %d", dg.NumEdges())
	}
}

func TestApplyRejectsAndRollsBack(t *testing.T) {
	base := diamond()
	for name, batch := range map[string][]Mutation{
		"vertex-range":    {{Op: Insert, From: 0, To: 99, Weight: 1}},
		"negative-weight": {{Op: Insert, From: 0, To: 1, Weight: -1}},
		"nan-weight":      {{Op: SetWeight, From: 0, To: 1, Weight: math.NaN()}},
		"missing-delete":  {{Op: Delete, From: 5, To: 0}},
		"missing-reweigh": {{Op: SetWeight, From: 5, To: 0, Weight: 2}},
		"unknown-op":      {{Op: Op(99), From: 0, To: 1}},
		// A valid prefix must be rolled back when a later mutation fails.
		"prefix-rollback": {
			{Op: Insert, From: 0, To: 5, Weight: 3},
			{Op: Delete, From: 0, To: 1},
			{Op: SetWeight, From: 1, To: 2, Weight: 9},
			{Op: Delete, From: 4, To: 4}, // missing: fails the batch
		},
	} {
		dg := FromCSR(base)
		if _, err := dg.Apply(batch); err == nil {
			t.Fatalf("%s: batch accepted", name)
		}
		if dg.Epoch() != 0 {
			t.Fatalf("%s: epoch advanced to %d on failed batch", name, dg.Epoch())
		}
		edgesEqual(t, base, dg.Snapshot())
	}
	dg := FromCSR(base)
	if _, err := dg.Apply([]Mutation{{Op: Delete, From: 1, To: 3}}); !errors.Is(err, ErrEdgeNotFound) {
		t.Fatalf("missing delete: err = %v, want ErrEdgeNotFound", err)
	}
}

// TestApplyRollbackParallelEdges is the regression for the slot-exact
// rollback bug: with parallel 0→1 edges, a batch that reweights one edge,
// deletes one, and then fails must leave the original edge multiset. The
// old adjacency-list graph undid the SetWeight on the FIRST 0→1
// occurrence after the Delete had reordered the list, and left {5,9}
// instead of {5,7}; a failed batch now drops its row copies instead.
func TestApplyRollbackParallelEdges(t *testing.T) {
	base := graph.MustBuild(2, []graph.Edge{
		{From: 0, To: 1, Weight: 5},
		{From: 0, To: 1, Weight: 7},
	})
	dg := FromCSR(base)
	_, err := dg.Apply([]Mutation{
		{Op: SetWeight, From: 0, To: 1, Weight: 9}, // first occurrence: 5 → 9
		{Op: Delete, From: 0, To: 1},               // removes the 9
		{Op: Op(99), From: 0, To: 1},               // fails the batch
	})
	if err == nil {
		t.Fatal("bad batch accepted")
	}
	if dg.Epoch() != 0 {
		t.Fatalf("epoch advanced to %d on failed batch", dg.Epoch())
	}
	edgesEqual(t, base, dg.Snapshot())
	// The reverse graph must hold the same multiset too.
	froms, ws := dg.Current().In.Neighbors(1)
	revW := append([]float64(nil), ws...)
	sort.Float64s(revW)
	if len(froms) != 2 || revW[0] != 5 || revW[1] != 7 {
		t.Fatalf("reverse row after a failed batch: %v %v", froms, ws)
	}
}

func TestApplyInsertThenDeleteWithinBatch(t *testing.T) {
	dg := FromCSR(diamond())
	if _, err := dg.Apply([]Mutation{
		{Op: Insert, From: 5, To: 0, Weight: 2},
		{Op: Delete, From: 5, To: 0},
	}); err != nil {
		t.Fatal(err)
	}
	edgesEqual(t, diamond(), dg.Snapshot())
}

func TestDeleteMatchesParallelEdgeWeights(t *testing.T) {
	g := graph.MustBuild(2, []graph.Edge{
		{From: 0, To: 1, Weight: 5},
		{From: 0, To: 1, Weight: 3},
	})
	dg := FromCSR(g)
	// Delete removes the first occurrence (weight 5) and must take the
	// weight-5 reverse edge with it, not the weight-3 one.
	if _, err := dg.Apply([]Mutation{{Op: Delete, From: 0, To: 1}}); err != nil {
		t.Fatal(err)
	}
	snap := dg.Snapshot()
	if snap.NumEdges() != 1 {
		t.Fatalf("%d edges left", snap.NumEdges())
	}
	if es := snap.Edges(); es[0].Weight != 3 {
		t.Fatalf("surviving weight %g, want 3", es[0].Weight)
	}
	if froms, ws := dg.Current().In.Neighbors(1); len(froms) != 1 || ws[0] != 3 {
		t.Fatalf("reverse row out of step: %v %v", froms, ws)
	}
}

// repairAfter applies batch and repairs the (previously exact) vectors,
// then checks both against a fresh Dijkstra recompute.
func repairAfter(t *testing.T, dg *Graph, src int, dist []float64, parent []int32, batch []Mutation) RepairStats {
	t.Helper()
	d, err := dg.Apply(batch)
	if err != nil {
		t.Fatal(err)
	}
	st := dg.Repair(src, dist, parent, d)
	want := seq.Dijkstra(dg.Snapshot(), src)
	if i := seq.FirstMismatch(want.Dist, dist); i >= 0 {
		t.Fatalf("repair: dist[%d] = %g, want %g (batch %v)", i, dist[i], want.Dist[i], batch)
	}
	if err := VerifyTree(dg, src, dist, parent); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestRepairInsertShortcut(t *testing.T) {
	dg := FromCSR(diamond())
	dist, parent := dg.SSSP(0)
	st := repairAfter(t, dg, 0, dist, parent, []Mutation{{Op: Insert, From: 0, To: 3, Weight: 0.5}})
	if dist[3] != 0.5 || dist[5] != 1.5 {
		t.Fatalf("shortcut not propagated: dist[3]=%g dist[5]=%g", dist[3], dist[5])
	}
	if st.Invalidated != 0 {
		t.Fatalf("insert invalidated %d vertices", st.Invalidated)
	}
}

func TestRepairDeleteRerouting(t *testing.T) {
	dg := FromCSR(diamond())
	dist, parent := dg.SSSP(0)
	// Deleting 1→2 severs the short path; 3 must reroute via 4 (0→4→3 = 11).
	st := repairAfter(t, dg, 0, dist, parent, []Mutation{{Op: Delete, From: 1, To: 2}})
	if dist[2] != math.Inf(1) || dist[3] != 11 || dist[5] != 12 {
		t.Fatalf("reroute: dist[2]=%g dist[3]=%g dist[5]=%g", dist[2], dist[3], dist[5])
	}
	if st.Invalidated == 0 {
		t.Fatal("delete of a tree edge invalidated nothing")
	}
}

func TestRepairDeleteDisconnects(t *testing.T) {
	dg := FromCSR(diamond())
	dist, parent := dg.SSSP(0)
	repairAfter(t, dg, 0, dist, parent, []Mutation{
		{Op: Delete, From: 2, To: 3},
		{Op: Delete, From: 4, To: 3},
	})
	if !math.IsInf(dist[3], 1) || !math.IsInf(dist[5], 1) {
		t.Fatalf("3 and 5 should be unreachable: %g %g", dist[3], dist[5])
	}
}

func TestRepairWeightChanges(t *testing.T) {
	dg := FromCSR(diamond())
	dist, parent := dg.SSSP(0)
	// Increase on the tree path reroutes; the later decrease re-activates it.
	repairAfter(t, dg, 0, dist, parent, []Mutation{{Op: SetWeight, From: 1, To: 2, Weight: 50}})
	if dist[3] != 11 {
		t.Fatalf("after increase dist[3]=%g, want 11", dist[3])
	}
	repairAfter(t, dg, 0, dist, parent, []Mutation{{Op: SetWeight, From: 1, To: 2, Weight: 1}})
	if dist[3] != 3 {
		t.Fatalf("after decrease dist[3]=%g, want 3", dist[3])
	}
}

func TestRepairNonTreeMutationsAreCheap(t *testing.T) {
	dg := FromCSR(diamond())
	dist, parent := dg.SSSP(0)
	// 4→3 is not a tree edge (tree uses 2→3); increasing it must not
	// invalidate anything.
	st := repairAfter(t, dg, 0, dist, parent, []Mutation{{Op: SetWeight, From: 4, To: 3, Weight: 2}})
	if st.Invalidated != 0 || st.Seeds != 0 {
		t.Fatalf("non-tree increase did work: %+v", st)
	}
}

func TestRepairDecreaseThenDeleteSameBatch(t *testing.T) {
	// Regression: a batch that decreases an edge and then deletes that same
	// edge leaves a stale record in Delta.Decreased. Repair must re-read the
	// post-batch graph when seeding — trusting the recorded weight would
	// relax through an edge that no longer exists (found by
	// TestPropertyRepairMatchesRecompute, seed 13).
	dg := FromCSR(diamond())
	dist, parent := dg.SSSP(0)
	repairAfter(t, dg, 0, dist, parent, []Mutation{
		{Op: SetWeight, From: 2, To: 3, Weight: 0.1},
		{Op: Delete, From: 2, To: 3},
	})
	if dist[3] != 11 {
		t.Fatalf("dist[3]=%g, want 11 via 0->4->3 (phantom decrease seed?)", dist[3])
	}
}

func TestRepairFromUnreachableSource(t *testing.T) {
	dg := FromCSR(diamond())
	dist, parent := dg.SSSP(5) // vertex 5 has no out-edges
	repairAfter(t, dg, 5, dist, parent, []Mutation{{Op: Insert, From: 5, To: 0, Weight: 1}})
	if dist[0] != 1 || dist[3] != 4 {
		t.Fatalf("newly reachable: dist[0]=%g dist[3]=%g", dist[0], dist[3])
	}
}

func TestVerifyTreeCatchesCorruption(t *testing.T) {
	dg := FromCSR(diamond())
	dist, parent := dg.SSSP(0)
	for name, corrupt := range map[string]func(d []float64, p []int32){
		"loose-parent":       func(d []float64, p []int32) { p[3] = 1 }, // no edge 1→3
		"wrong-dist":         func(d []float64, p []int32) { d[2] = 7 },
		"unreachable-parent": func(d []float64, p []int32) { d[2] = math.Inf(1); p[2] = 0 },
		"source-moved":       func(d []float64, p []int32) { d[0] = 1 },
	} {
		d := append([]float64(nil), dist...)
		p := append([]int32(nil), parent...)
		corrupt(d, p)
		if err := VerifyTree(dg, 0, d, p); err == nil {
			t.Errorf("%s: corruption passed verification", name)
		}
	}
	if err := VerifyTree(dg, 0, dist[:3], parent[:3]); err == nil {
		t.Error("short vectors passed verification")
	}
}

func TestOpRoundTrip(t *testing.T) {
	for _, op := range []Op{Insert, Delete, SetWeight} {
		got, err := ParseOp(op.String())
		if err != nil || got != op {
			t.Fatalf("round trip %v: got %v, %v", op, got, err)
		}
	}
	if _, err := ParseOp("bogus"); err == nil {
		t.Fatal("ParseOp accepted bogus")
	}
	if s := Op(99).String(); s != "op(99)" {
		t.Fatalf("unknown op string %q", s)
	}
}
