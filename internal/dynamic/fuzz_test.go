package dynamic

// Fuzzing the spliced CSRs: Apply edits copies of the rows a batch touches
// and splices them into new forward and reverse CSRs, copying the untouched
// runs of the old ones. A splice that misplaces a run, or an edit that hits
// the wrong edge or reorders a row, shows up as a snapshot that differs
// from a plain list model of the same batches (applyModel), or as a reverse
// snapshot that is not the transpose of the forward one. The tape mixes
// valid batches, invalid ones that must leave the graph as it was,
// parallel edges, insert-then-delete within one batch, and same-weight
// SetWeight.

import (
	"math"
	"slices"
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
	f.Add([]byte{1, 3, 0, 1, 1, 0, 2, 2, 0, 0, 3, 3, 0, 0, 0, 2, 1, 2, 0, 7, 0, 0, 0})       // delete, then a missing delete fails
	f.Add([]byte{0, 2, 0, 1, 1, 0, 1, 1, 0, 0, 1, 1, 7, 0, 0, 0, 6, 1, 0, 2, 7, 0, 0, 0})    // parallel edges, insert-then-delete
	f.Add([]byte{2, 4, 0, 1, 1, 0, 2, 2, 1, 2, 3, 3, 0, 1, 5, 3, 0, 1, 0, 4, 1, 0, 2, 7, 0}) // same-weight and changed SetWeight
	f.Add([]byte{5, 0, 0, 1, 2, 3, 1, 3, 4, 2, 2, 4, 4, 255, 7, 0, 0, 0, 3, 0, 0, 0})        // out-of-range vertex fails
	f.Add([]byte{3, 5, 0, 1, 1, 1, 2, 1, 2, 3, 1, 3, 0, 1, 0, 2, 1, 3, 1, 0, 0, 3, 2, 0, 0, 2, 0, 3, 1, 7, 0, 0, 0, 3, 1, 0, 0, 3, 1, 0, 0, 2, 1, 1, 1, 7})
	f.Add([]byte{0, 3, 0, 1, 1, 0, 1, 2, 0, 1, 3, 2, 0, 1, 0, 7, 0, 0, 0}) // three parallel weights: a delete keeps the rest in order
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &tapeReader{data: data}
		n := 2 + int(r.next()%6)
		var edges []graph.Edge
		for i := int(r.next() % 12); i > 0; i-- {
			edges = append(edges, graph.Edge{From: int32(r.next()) % int32(n), To: int32(r.next()) % int32(n), Weight: float64(r.next() % 4)})
		}
		dg := FromCSR(graph.MustBuild(n, edges))
		model := make([][]half, n)
		for _, e := range edges {
			model[e.From] = append(model[e.From], half{v: e.To, w: e.Weight})
		}
		prev := checkSplice(t, dg, model, spliceState{})

		// existing names the slot-th out-edge of v as it stands now, or a
		// pair that may not exist when v has none.
		existing := func(v, slot byte) (int32, int32, float64) {
			from := int32(v) % int32(n)
			ts, ws := dg.Snapshot().Neighbors(int(from))
			if len(ts) == 0 {
				return from, int32(slot) % int32(n), 1
			}
			i := int(slot) % len(ts)
			return from, ts[i], ws[i]
		}
		var batch []Mutation
		for !r.done() {
			code, a, b, w := r.next(), r.next(), r.next(), r.next()
			to := int32(b) % int32(n)
			if w == 255 {
				to = int32(n) // out of range: the batch fails at this op
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
				want, ok := applyModel(model, batch)
				epoch, out, in := dg.Epoch(), dg.Snapshot(), dg.ReverseSnapshot()
				_, err := dg.Apply(batch)
				if (err == nil) != ok {
					t.Fatalf("Apply(%v) = %v, the model says ok=%v", batch, err, ok)
				}
				if err != nil && (dg.Epoch() != epoch || dg.Snapshot() != out || dg.ReverseSnapshot() != in) {
					t.Fatalf("failed batch %v moved the graph (epoch %d -> %d)", batch, epoch, dg.Epoch())
				}
				model = want
				prev = checkSplice(t, dg, model, prev)
				batch = batch[:0]
			}
		}
	})
}

// applyModel is Apply on plain lists: the batch's ops in order on a copy
// of adj, Delete and SetWeight on the first From→To edge in row order, a
// delete keeping the order of the rest. It returns the new lists, or adj
// and false when an op names a vertex out of range or a missing edge (the
// only failures the tape makes).
func applyModel(adj [][]half, batch []Mutation) ([][]half, bool) {
	next := make([][]half, len(adj))
	for v := range adj {
		next[v] = slices.Clone(adj[v])
	}
	n := int32(len(adj))
	for _, m := range batch {
		if m.From < 0 || m.From >= n || m.To < 0 || m.To >= n {
			return adj, false
		}
		row := next[m.From]
		i := slices.IndexFunc(row, func(h half) bool { return h.v == m.To })
		switch {
		case m.Op == Insert:
			next[m.From] = append(row, half{v: m.To, w: m.Weight})
		case i < 0:
			return adj, false
		case m.Op == Delete:
			next[m.From] = slices.Delete(row, i, i+1)
		default:
			row[i].w = m.Weight
		}
	}
	return next, true
}

// spliceState is what checkSplice saw at one epoch: both snapshots and
// the edges they held then.
type spliceState struct {
	out, in           *graph.Graph
	outEdges, inEdges []graph.Edge
}

// checkSplice requires the forward snapshot to equal graph.Build of the
// model, slot for slot, and the reverse one to hold, row by row, the edges
// of the forward one's Reverse(). The previous snapshots must still hold
// the edges they held when they were taken.
func checkSplice(t *testing.T, dg *Graph, model [][]half, prev spliceState) spliceState {
	t.Helper()
	cur := spliceState{out: dg.Snapshot(), in: dg.ReverseSnapshot()}
	checkCSR(t, cur.out, model)
	transpose := cur.out.Reverse()
	for v := 0; v < dg.NumVertices(); v++ {
		if got, want := sortedRow(cur.in, v), sortedRow(transpose, v); !equalEdges(got, want) {
			t.Fatalf("reverse snapshot row %d = %v, Reverse() of the snapshot has %v", v, got, want)
		}
	}
	if prev.out != nil {
		if got := prev.out.Edges(); !equalEdges(got, prev.outEdges) {
			t.Fatalf("previous snapshot changed %v -> %v", prev.outEdges, got)
		}
		if got := prev.in.Edges(); !equalEdges(got, prev.inEdges) {
			t.Fatalf("previous reverse snapshot changed %v -> %v", prev.inEdges, got)
		}
	}
	cur.outEdges, cur.inEdges = cur.out.Edges(), cur.in.Edges()
	return cur
}

// checkCSR requires snap to equal graph.Build of adj, slot for slot.
func checkCSR(t *testing.T, snap *graph.Graph, adj [][]half) {
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
		t.Fatalf("snapshot shape %d/%d/%d, want %d/%d/%d", len(gotOff), len(gotT), len(gotW), len(wantOff), len(wantT), len(wantW))
	}
	for i := range wantOff {
		if gotOff[i] != wantOff[i] {
			t.Fatalf("snapshot offsets[%d] = %d, want %d", i, gotOff[i], wantOff[i])
		}
	}
	for i := range wantT {
		if gotT[i] != wantT[i] || math.Float64bits(gotW[i]) != math.Float64bits(wantW[i]) {
			t.Fatalf("snapshot edge slot %d = ->%d w=%g, want ->%d w=%g", i, gotT[i], gotW[i], wantT[i], wantW[i])
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
