package dynamic

// Fuzzing the spliced snapshot: Snapshot copies unchanged runs of the
// previous CSR and rewrites only the sources the mutation primitives
// marked, so a primitive that forgets to mark (or a rollback that reorders
// a list behind the marks' back) shows up as a snapshot that differs from
// a fresh build of the adjacency lists. The tape mixes valid batches,
// invalid ones that roll back, parallel edges, insert-then-delete within
// one batch, and same-weight SetWeight.

import (
	"math"
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
		prev := checkSplice(t, dg, nil, nil)
		prevEdges := prev.Edges()

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
				prev = checkSplice(t, dg, prev, prevEdges)
				prevEdges = prev.Edges()
				batch = batch[:0]
			}
		}
	})
}

// checkSplice takes a snapshot and requires it to equal graph.Build of the
// current adjacency edge for edge, in order; a second call with nothing
// dirty must return the same graph, and the previous snapshot must still
// hold the edges it held when it was taken.
func checkSplice(t *testing.T, dg *Graph, prev *graph.Graph, prevEdges []graph.Edge) *graph.Graph {
	t.Helper()
	snap := dg.Snapshot()
	var edges []graph.Edge
	for v, hs := range dg.fwd {
		for _, h := range hs {
			edges = append(edges, graph.Edge{From: int32(v), To: h.v, Weight: h.w})
		}
	}
	want := graph.MustBuild(dg.NumVertices(), edges)
	gotOff, gotT, gotW := snap.CSR()
	wantOff, wantT, wantW := want.CSR()
	if len(gotOff) != len(wantOff) || len(gotT) != len(wantT) || len(gotW) != len(wantW) {
		t.Fatalf("snapshot shape %d/%d/%d, want %d/%d/%d", len(gotOff), len(gotT), len(gotW), len(wantOff), len(wantT), len(wantW))
	}
	for i := range wantOff {
		if gotOff[i] != wantOff[i] {
			t.Fatalf("offsets[%d] = %d, want %d", i, gotOff[i], wantOff[i])
		}
	}
	for i := range wantT {
		if gotT[i] != wantT[i] || math.Float64bits(gotW[i]) != math.Float64bits(wantW[i]) {
			t.Fatalf("edge slot %d = ->%d w=%g, want ->%d w=%g", i, gotT[i], gotW[i], wantT[i], wantW[i])
		}
	}
	if again := dg.Snapshot(); again != snap {
		t.Fatal("a snapshot with nothing dirty built a new graph")
	}
	if prev != nil {
		got := prev.Edges()
		if len(got) != len(prevEdges) {
			t.Fatalf("previous snapshot changed size %d -> %d", len(prevEdges), len(got))
		}
		for i := range got {
			if got[i] != prevEdges[i] {
				t.Fatalf("previous snapshot edge %d changed %v -> %v", i, prevEdges[i], got[i])
			}
		}
	}
	return snap
}
