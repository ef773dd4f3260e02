package dynamic

// Fuzzing the spliced snapshots: Snapshot and ReverseSnapshot copy
// unchanged runs of the previous CSR and rewrite only the vertices the
// mutation primitives marked, so a primitive that forgets to mark (or a
// rollback that reorders a list behind the marks' back) shows up as a
// snapshot that differs from a fresh build of the adjacency lists, or as a
// reverse snapshot that is not the transpose of the forward one. The tape
// mixes valid batches, invalid ones that roll back, parallel edges,
// insert-then-delete within one batch, and same-weight SetWeight.

import (
	"math"
	"sort"
	"testing"

	"acic/internal/graph"
)

// tapeReader hands out the fuzz input one byte at a time, zero once spent.
type tapeReader struct {
	data []byte
	pos  int
}

func (r *tapeReader) next() byte {
	if r.pos >= len(r.data) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

func (r *tapeReader) done() bool { return r.pos >= len(r.data) }

func FuzzSnapshotSplice(f *testing.F) {
	// Header: vertex count, initial edge count, then (from, to, weight)
	// per edge; then 4-byte ops (code, a, b, w) — see the switch below.
	f.Add([]byte{1, 3, 0, 1, 1, 0, 2, 2, 0, 0, 3, 3, 0, 0, 0, 2, 1, 2, 0, 7, 0, 0, 0})       // delete, then a missing delete rolls back
	f.Add([]byte{0, 2, 0, 1, 1, 0, 1, 1, 0, 0, 1, 1, 7, 0, 0, 0, 6, 1, 0, 2, 7, 0, 0, 0})    // parallel edges, insert-then-delete
	f.Add([]byte{2, 4, 0, 1, 1, 0, 2, 2, 1, 2, 3, 3, 0, 1, 5, 3, 0, 1, 0, 4, 1, 0, 2, 7, 0}) // same-weight and changed SetWeight
	f.Add([]byte{5, 0, 0, 1, 2, 3, 1, 3, 4, 2, 2, 4, 4, 255, 7, 0, 0, 0, 3, 0, 0, 0})        // out-of-range vertex rolls back
	f.Add([]byte{3, 5, 0, 1, 1, 1, 2, 1, 2, 3, 1, 3, 0, 1, 0, 2, 1, 3, 1, 0, 0, 3, 2, 0, 0, 2, 0, 3, 1, 7, 0, 0, 0, 3, 1, 0, 0, 3, 1, 0, 0, 2, 1, 1, 1, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &tapeReader{data: data}
		n := 2 + int(r.next()%6)
		var edges []graph.Edge
		for i := int(r.next() % 12); i > 0; i-- {
			edges = append(edges, graph.Edge{From: int32(r.next()) % int32(n), To: int32(r.next()) % int32(n), Weight: float64(r.next() % 4)})
		}
		dg := FromCSR(graph.MustBuild(n, edges))
		prev := checkSplice(t, dg, spliceState{})

		// existing names the slot-th out-edge of v as it stands now, or a
		// pair that may not exist when v has none.
		existing := func(v, slot byte) (int32, int32, float64) {
			from := int32(v) % int32(n)
			hs := dg.fwd[from]
			if len(hs) == 0 {
				return from, int32(slot) % int32(n), 1
			}
			h := hs[int(slot)%len(hs)]
			return from, h.v, h.w
		}
		var batch []Mutation
		for !r.done() {
			code, a, b, w := r.next(), r.next(), r.next(), r.next()
			to := int32(b) % int32(n)
			if w == 255 {
				to = int32(n) // out of range: the batch rolls back at this op
			}
			switch code % 8 {
			case 0, 1:
				batch = append(batch, Mutation{Op: Insert, From: int32(a) % int32(n), To: to, Weight: float64(w % 4)})
			case 2:
				batch = append(batch, Mutation{Op: Delete, From: int32(a) % int32(n), To: to})
			case 3:
				from, dst, _ := existing(a, b)
				batch = append(batch, Mutation{Op: Delete, From: from, To: dst})
			case 4:
				from, dst, _ := existing(a, b)
				batch = append(batch, Mutation{Op: SetWeight, From: from, To: dst, Weight: float64(w % 4)})
			case 5:
				from, dst, cur := existing(a, b)
				batch = append(batch, Mutation{Op: SetWeight, From: from, To: dst, Weight: cur})
			case 6:
				from := int32(a) % int32(n)
				batch = append(batch,
					Mutation{Op: Insert, From: from, To: to, Weight: float64(w % 4)},
					Mutation{Op: Delete, From: from, To: to})
			case 7:
				epoch := dg.Epoch()
				if _, err := dg.Apply(batch); err != nil && dg.Epoch() != epoch {
					t.Fatalf("failed batch %v moved the epoch %d -> %d", batch, epoch, dg.Epoch())
				}
				prev = checkSplice(t, dg, prev)
				batch = batch[:0]
			}
		}
	})
}

// spliceState is what checkSplice saw at one epoch: both snapshots and
// the edges they held then.
type spliceState struct {
	fwd, rev           *graph.Graph
	fwdEdges, revEdges []graph.Edge
}

// checkSplice takes both snapshots and requires each to equal graph.Build
// of its adjacency lists edge for edge, in order, and the reverse one to
// hold, row by row, the edges of the forward one's Reverse(). A second call
// with nothing dirty must return the same graphs, and the previous
// snapshots must still hold the edges they held when they were taken.
func checkSplice(t *testing.T, dg *Graph, prev spliceState) spliceState {
	t.Helper()
	cur := spliceState{fwd: dg.Snapshot(), rev: dg.ReverseSnapshot()}
	checkCSR(t, "snapshot", cur.fwd, dg.fwd)
	checkCSR(t, "reverse snapshot", cur.rev, dg.rev)
	transpose := cur.fwd.Reverse()
	for v := 0; v < dg.NumVertices(); v++ {
		if got, want := sortedRow(cur.rev, v), sortedRow(transpose, v); !equalEdges(got, want) {
			t.Fatalf("reverse snapshot row %d = %v, Reverse() of the snapshot has %v", v, got, want)
		}
	}
	if dg.Snapshot() != cur.fwd || dg.ReverseSnapshot() != cur.rev {
		t.Fatal("a snapshot with nothing dirty built a new graph")
	}
	if prev.fwd != nil {
		if got := prev.fwd.Edges(); !equalEdges(got, prev.fwdEdges) {
			t.Fatalf("previous snapshot changed %v -> %v", prev.fwdEdges, got)
		}
		if got := prev.rev.Edges(); !equalEdges(got, prev.revEdges) {
			t.Fatalf("previous reverse snapshot changed %v -> %v", prev.revEdges, got)
		}
	}
	cur.fwdEdges, cur.revEdges = cur.fwd.Edges(), cur.rev.Edges()
	return cur
}

// checkCSR requires snap to equal graph.Build of adj, slot for slot.
func checkCSR(t *testing.T, name string, snap *graph.Graph, adj [][]half) {
	t.Helper()
	var edges []graph.Edge
	for v, hs := range adj {
		for _, h := range hs {
			edges = append(edges, graph.Edge{From: int32(v), To: h.v, Weight: h.w})
		}
	}
	want := graph.MustBuild(len(adj), edges)
	gotOff, gotT, gotW := snap.CSR()
	wantOff, wantT, wantW := want.CSR()
	if len(gotOff) != len(wantOff) || len(gotT) != len(wantT) || len(gotW) != len(wantW) {
		t.Fatalf("%s shape %d/%d/%d, want %d/%d/%d", name, len(gotOff), len(gotT), len(gotW), len(wantOff), len(wantT), len(wantW))
	}
	for i := range wantOff {
		if gotOff[i] != wantOff[i] {
			t.Fatalf("%s offsets[%d] = %d, want %d", name, i, gotOff[i], wantOff[i])
		}
	}
	for i := range wantT {
		if gotT[i] != wantT[i] || math.Float64bits(gotW[i]) != math.Float64bits(wantW[i]) {
			t.Fatalf("%s edge slot %d = ->%d w=%g, want ->%d w=%g", name, i, gotT[i], gotW[i], wantT[i], wantW[i])
		}
	}
}

// sortedRow returns v's out-edges in g, sorted by target then weight.
func sortedRow(g *graph.Graph, v int) []graph.Edge {
	ts, ws := g.Neighbors(v)
	row := make([]graph.Edge, len(ts))
	for i := range ts {
		row[i] = graph.Edge{From: int32(v), To: ts[i], Weight: ws[i]}
	}
	sort.Slice(row, func(i, j int) bool {
		if row[i].To != row[j].To {
			return row[i].To < row[j].To
		}
		return row[i].Weight < row[j].Weight
	})
	return row
}

func equalEdges(a, b []graph.Edge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
